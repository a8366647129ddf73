"""Physical (executable) operators — the chunk-at-a-time engine.

The paper's prototype translates algebraic forms into "physical plans that
are evaluated in memory" (Section 6).  This module provides those physical
algorithms:

* pipelined scan / select / map / unnest operators — a map also carries
  the planner's **group-unnest**: a nest over an outer-unnest of its own
  rows, bound as one generated fold per row (no operator of its own);
* one **hash** join and left outer-join, keyed on the equi-join keys the
  planner extracts (the optimization the paper says unnesting enables for
  QUERY E); with none it is the **nested-loop** join, one bucket; probed
  by one seed row on a closed key, it is the **index scan**;
* hash-based grouping for the nest operator (single pass);
* the **group-join**: a nest that groups an outer-join by the join's own
  left columns runs as a map over the left stream, handing each left row
  the fold of its matches without the join ever materialising a pair;
* the **shared nest**: a nest whose spine of outer-joins, outer-unnests and
  inner nests reads of its outer rows only a few expressions runs that
  spine over one representative row per distinct binding of them;
* streaming reduce with quantifier short-circuiting.

Every operator implements one protocol, ``batches()``: a restartable stream
of columnar :class:`~repro.engine.batch.Chunk` blocks.  Each expression an
operator evaluates — select predicate, map head, join key, unnest path,
reduce accumulator — is lowered once, when the operator is built, to a
kernel (:mod:`repro.engine.compile`): one native call evaluates it over a
whole chunk.  ``rows()`` is a generic per-row view derived from the chunks,
for tests and diagnostics; operators never call it on each other.

Three conventions hold across operators:

* **Errors are delivered lazily.**  Kernels *truncate* instead of raising:
  a failure at row *t* surfaces only after the preceding rows have been
  delivered, so a short-circuiting consumer (``exists`` satisfied early)
  never observes an error it would not have reached row by row.
* **Work units settle per chunk.**  Operators count the units they perform
  (rows scanned, unnest elements, join pairs considered) per input chunk
  and settle them with one ``tick_many`` — see the row-budget contract in
  :mod:`repro.engine.governor`.
* **Blocking builds run once, buffer whole columns and charge them.**  A
  build side is its input's columns plus the row *positions* filed under
  each join key; a nest's groups are one column per grouping variable plus
  the accumulators in first-seen order.  Each is memoized on first entry;
  a join's *closed* build side, once per database state
  (:mod:`repro.engine.reuse`).  Under a memory budget a build charges a
  stride-sampled byte estimate of the chunks it buffers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress, groupby
from typing import Any, Iterator, Mapping, Sequence

from repro.algebra.operators import Operator, occurrence
from repro.calculus.evaluator import EvaluationError, Evaluator as TermEvaluator, ExtentProvider
from repro.calculus.monoids import CollectionMonoid, Monoid, fold_skipping_nulls
from repro.calculus.terms import TRUE, Proj, Term, Var, free_vars
from repro.data.values import (
    NULL,
    CollectionValue,
    exact_key,
    identity_key,
    is_null,
)
from repro.engine.batch import DEFAULT_BATCH_SIZE, Chunk
from repro.engine.compile import CompiledKernel, ExprCompiler
from repro.engine.governor import SAMPLE_STRIDE, charge_values, estimate_bytes
from repro.engine.reuse import reused
from repro.errors import GovernorError

Env = dict[str, Any]


class _Context:
    """Shared per-execution state: the database, the bound
    prepared-statement parameters (``:name`` placeholder values), the
    expression compiler with the interpreter its fallback nodes call, the
    optional per-execution :class:`~repro.engine.governor.Governor`, and
    the plan's *typing* (:mod:`repro.algebra.typing`): the planner reads
    it, and each of its occurring variables has an occurrence column."""

    def __init__(
        self,
        database: ExtentProvider,
        params: Mapping[str, Any] | None = None,
        profile: bool = False,
        compiler: ExprCompiler | None = None,
        governor: Any | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        typing: Any = None,
    ):
        self.database = database
        self.params = dict(params) if params else {}
        self.profile = profile
        self.governor = governor
        self.batch_size = max(1, batch_size)
        self.typing = typing
        self.occurrences = {v: occurrence(v) for v in getattr(typing, "occurring", ())}
        self._terms = TermEvaluator(database, self.params, governor=governor)
        self._compiler = compiler if compiler is not None else ExprCompiler()
        self.activate()

    def activate(self) -> None:
        """Bind the calling thread's kernels to this execution."""
        self._compiler.activate(self._terms, self.database)

    def charge_fn(self):
        """The governor's byte-accounting hook for blocking operators, or
        None when ungoverned or no memory budget is set (the shallow size
        estimation is only worth paying when a budget can trip)."""
        governor = self.governor
        if governor is None or governor.max_bytes is None:
            return None
        return governor.charge


def _charge_chunk(charge, chunk: Chunk, seen: int) -> None:
    """Charge a buffered chunk's bytes, one sampled row per stride.

    *seen* rows were buffered before this chunk, so the sampled rows are
    the buffer's rows 0, SAMPLE_STRIDE, 2·SAMPLE_STRIDE, … wherever chunk
    boundaries fall.  One row stands for its whole stride: rows in a buffer
    share a shape, and charging the stride up front keeps the estimator off
    the per-row path.
    """
    for i in range(-seen % SAMPLE_STRIDE, chunk.length, SAMPLE_STRIDE):
        charge(estimate_bytes(chunk.env_at(i)) * SAMPLE_STRIDE)


def _filed(key_parts: list[list], bare: Sequence[bool]) -> list:
    """Each row's key as a hash table files it: one part alone (no tuple
    per row), several as a tuple.  A part goes through identity_key, so that
    a probe gives `=` on stored objects apply_binop's identity equality, but
    as it is where the plan's typing types it as a scalar (*bare*)."""
    parts = [
        part if plain else list(map(identity_key, part))
        for part, plain in zip(key_parts, bare)
    ]
    return parts[0] if len(parts) == 1 else list(zip(*parts))


def _index_rows(
    rows_of: dict, key_parts: list, offset: int, n: int, bare: Sequence
) -> None:
    """File the *n* build rows *offset*, *offset* + 1, … under their
    :func:`_filed` join keys, none under ``()``: a keyless table is one
    bucket."""
    setdefault = rows_of.setdefault
    if not key_parts:
        if n:
            setdefault((), []).extend(range(offset, offset + n))
        return
    for pos, key in enumerate(_filed(key_parts, bare), offset):
        setdefault(key, []).append(pos)


def _probe_rows(table: dict, key_parts: list, n: int, bare: Sequence) -> list:
    """What each of *n* probing rows finds in *table*: None where the key
    is NULL in any part (a NULL never equi-joins) or has no build row.
    Without keys every row finds the one entry filed under ``()``."""
    get = table.get
    if not key_parts:
        return [get(())] * n
    keys = _filed(key_parts, bare)  # identity_key keeps NULL as it is
    if len(key_parts) == 1:
        return [None if key is NULL else get(key) for key in keys]
    return [None if any(k is NULL for k in key) else get(key) for key in keys]


def _column_chunks(
    columns: Mapping[str, list], length: int, size: int
) -> Iterator[Chunk]:
    """Whole columns of *length* rows as chunks of at most *size* rows."""
    for start in range(0, length, size):
        stop = min(start + size, length)
        yield Chunk(
            {name: col[start:stop] for name, col in columns.items()}, stop - start
        )


class PhysicalOperator:
    """Base class: a restartable stream of chunks."""

    def __init__(self) -> None:
        self.rows_produced = 0
        #: Chunks this operator emitted and the rows they carried, so
        #: EXPLAIN ANALYZE shows how every operator's output was chunked.
        self.batches_produced = 0
        self.batch_rows = 0
        #: Wall time spent evaluating this operator's expressions, in ms.
        #: Only accumulated when the execution context profiles evaluation
        #: (EXPLAIN ANALYZE); stays 0.0 otherwise.
        self.eval_ms = 0.0
        self._kernels: list[CompiledKernel] = []

    def batches(self) -> Iterator[Chunk]:
        raise NotImplementedError

    def rows(self) -> Iterator[Env]:
        """The chunk stream one environment at a time (tests, diagnostics)."""
        for chunk in self.batches():
            yield from chunk.envs()

    def _emit_chunk(self, chunk: Chunk) -> Chunk:
        """Account a produced chunk."""
        self.rows_produced += chunk.length
        self.batches_produced += 1
        self.batch_rows += chunk.length
        return chunk

    def _run_kernel(
        self, kernel: CompiledKernel, columns: Mapping[str, list], n: int
    ) -> tuple[list, int, Any]:
        """Invoke a kernel, timing it when the context profiles."""
        if not self._context.profile:  # type: ignore[attr-defined]
            return kernel.fn(columns, n)
        start = time.perf_counter()
        try:
            return kernel.fn(columns, n)
        finally:
            self.eval_ms += (time.perf_counter() - start) * 1000.0

    def _key_columns(
        self, kernels: tuple[CompiledKernel, ...], cols: Mapping[str, list], n: int
    ) -> tuple[list[list], int, Any]:
        """Evaluate join-key kernels over a chunk: one value list per key,
        all truncated to the rows that precede the first key fault."""
        err = None
        parts: list[list] = []
        for kernel in kernels:
            values, t, e = self._run_kernel(kernel, cols, n)
            if t < n:
                n = t
                err = e
                parts = [part[:n] for part in parts]
            parts.append(values)
        return parts, n, err

    def _buffered(
        self, child: "PhysicalOperator", into: dict[str, list]
    ) -> Iterator[tuple[Mapping[str, list], int, int]]:
        """Drain *child* into the whole columns *into*, charging each chunk
        as it is buffered.  Yields every chunk's own columns with its offset
        in the buffer and its length, so a build's key kernels run chunk by
        chunk, as the rows arrive."""
        charge = self._context.charge_fn()
        offset = 0
        for chunk in child.batches():
            if charge is not None:
                _charge_chunk(charge, chunk, offset)
            for name, values in into.items():
                values.extend(chunk.columns[name])
            yield chunk.columns, offset, chunk.length
            offset += chunk.length

    def _emit_candidates(
        self,
        cols: Mapping[str, list],
        n: int,
        parent_of: list[int],
        added: dict[str, list],
        kerr: Any,
    ) -> Iterator[Chunk]:
        """Filter candidate rows through the operator's ``_holds`` kernel
        (which reads ``_holds_vars``) and emit the survivors — a hash join's
        residual path and an unnest's predicate path.

        The candidates of the *n*-row chunk *cols* lie row after row:
        ``parent_of`` names each one's row and *added* holds the columns it
        adds, by name (both are consumed).  Every candidate reached is a
        work unit, on a predicate fault the failing one included.  Under
        ``outer`` a row none of whose candidates survives pads with NULLs —
        but not the row the predicate faulted in, where that is undecided:
        it emits the survivors that preceded the fault.  *kerr* (a key or
        path fault past row *n*) is raised after the rows that preceded it.
        """
        governor = self._context.governor
        holds: CompiledKernel = self._holds
        total = len(parent_of)
        if total and not holds.trivial_true:
            # Gather only the columns the predicate reads.
            needed = self._holds_vars
            ccols = {
                name: [col[i] for i in parent_of]
                for name, col in cols.items()
                if name in needed
            }
            ccols.update(added)
            flags, passed, perr = self._run_kernel(holds, ccols, total)
            if governor is not None:
                governor.tick_many(passed + 1 if perr is not None else total)
            if perr is not None:
                n = parent_of[passed]
                kerr = perr
            # flags covers candidates [0, passed): compress truncates to it.
            parent_of = list(compress(parent_of, flags))
            added = {
                name: list(compress(col, flags)) for name, col in added.items()
            }
        elif governor is not None:
            governor.tick_many(total)
        if self.outer:
            matched = set(parent_of)
            pads = [i for i in range(n) if i not in matched]
            if pads:
                # Survivors and pads are two ascending runs of rows, and no
                # row is in both: one stable sort interleaves them.
                parent_of.extend(pads)
                order = sorted(range(len(parent_of)), key=parent_of.__getitem__)
                parent_of = [parent_of[j] for j in order]
                for col in added.values():
                    col.extend([NULL] * len(pads))
                added = {
                    name: [col[j] for j in order] for name, col in added.items()
                }
        if parent_of:
            yield self._gathered(cols, parent_of, added)
        if kerr is not None:
            raise kerr

    def _gathered(
        self, cols: Mapping[str, list], parent_of: list[int], added: dict[str, list]
    ) -> Chunk:
        """One row per candidate: its row's columns of *cols*, each gathered
        with one comprehension instead of per-row appends, and *added*."""
        out_cols = {name: [col[i] for i in parent_of] for name, col in cols.items()}
        out_cols.update(added)
        return self._emit_chunk(Chunk(out_cols, len(parent_of)))

    def _kept_heads(
        self, cols: Mapping[str, list], n: int, null_vars: tuple[str, ...] = ()
    ) -> tuple[int, Any, list, Any]:
        """Heads of the rows of an *n*-row chunk that *null_vars* (none of
        them NULL) and the ``_holds`` predicate keep: ``(limit, picked,
        values, err)`` — the predicate decided rows ``[0, limit)``, *picked*
        are the kept ones among them up to the first fault, *values* their
        ``_head_kernel`` values, *err* that fault.  A head fault wins over a
        later predicate fault because each row evaluates its predicate,
        then its head.
        """
        holds: CompiledKernel = self._holds
        if holds.trivial_true:
            flags, limit, err = None, n, None
        else:
            flags, limit, err = self._run_kernel(holds, cols, n)
        null_cols = [cols[col] for col in null_vars]
        if not null_cols and flags is None:
            picked: Any = range(limit)
        elif not null_cols:
            picked = [i for i in range(limit) if flags[i]]
        elif len(null_cols) == 1:
            null_col = null_cols[0]
            picked = [
                i
                for i in range(limit)
                if null_col[i] is not NULL and (flags is None or flags[i])
            ]
        else:
            picked = [
                i
                for i in range(limit)
                if not any(col[i] is NULL for col in null_cols)
                and (flags is None or flags[i])
            ]
        m = len(picked)
        if not m:
            return limit, picked, [], err
        if m == n:
            if isinstance(self.head, Var):  # the chunk's own column, read-only
                return limit, picked, cols[self.head.name], err
            scols = cols
        else:
            # Gather only the columns the head reads.
            head_vars = self._head_vars
            scols = {
                name: [col[i] for i in picked]
                for name, col in cols.items()
                if name in head_vars
            }
        values, t, herr = self._run_kernel(self._head_kernel, scols, m)
        if herr is not None:
            err = herr
            picked = picked[:t]
        return limit, picked, values, err

    def children(self) -> tuple["PhysicalOperator", ...]:
        return ()

    def name(self) -> str:
        return type(self).__name__.removeprefix("P")

    def explain(self, indent: int = 0) -> str:
        """An EXPLAIN-style rendering of the physical plan."""
        lines = ["  " * indent + self.describe()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return self.name()

    def total_rows(self) -> int:
        """Rows produced by this operator and everything below it."""
        return self.rows_produced + sum(c.total_rows() for c in self.children())

    # -- expression binding --------------------------------------------------

    def eval_mode(self) -> str:
        """How this operator's expressions execute.

        ``"compiled"`` — every AST node lowered to generated code;
        ``"mixed"`` — some subtrees fell back to the interpreter;
        ``"interpreted"`` — every expression runs through the interpreter;
        ``""`` — the operator evaluates no expressions (scans, seeds).
        """
        if not self._kernels:
            return ""
        compiled = sum(k.compiled_nodes for k in self._kernels)
        fallback = sum(k.fallback_nodes for k in self._kernels)
        if fallback == 0:
            return "compiled"
        if compiled == 0:
            return "interpreted"
        return "mixed"

    def _kernel(self, context: _Context, term: Term) -> CompiledKernel:
        """Lower a value expression and register it for ``eval_mode``."""
        kernel = context._compiler.compile_kernel(term)
        self._kernels.append(kernel)
        return kernel

    def _pred_kernel(self, context: _Context, term: Term) -> CompiledKernel:
        """Lower a strict-boolean predicate (NULL filters as False)."""
        kernel = context._compiler.compile_predicate_kernel(term)
        self._kernels.append(kernel)
        return kernel


class PScan(PhysicalOperator):
    """Sequential scan of a class extent (a row's occurrence: its position)."""

    def __init__(self, context: _Context, extent: str, var: str):
        super().__init__()
        self._context = context
        self.extent = extent
        self.var = var
        self._occurrence = context.occurrences.get(var)

    def _items(self) -> tuple[list, Sequence[int]]:
        """The rows to emit and each one's occurrence: its position in the
        extent."""
        items = list(self._context.database.extent(self.extent))
        return items, range(len(items))

    def batches(self) -> Iterator[Chunk]:
        # Slice the items directly into column lists — no per-row dict, no
        # generator hop — charging one work unit per row, once per chunk.
        context = self._context
        var = self.var
        size = context.batch_size
        governor = context.governor
        items, positions = self._items()
        for start in range(0, len(items), size):
            col = items[start : start + size]
            if governor is not None:
                governor.tick_many(len(col))
            columns = {var: col}
            if self._occurrence is not None:
                columns[self._occurrence] = list(positions[start : start + size])
            yield self._emit_chunk(Chunk(columns, len(col)))

    def describe(self) -> str:
        return f"Scan({self.var} <- {self.extent})"


class PMaterializedSource(PhysicalOperator):
    """Leaf replaying columns another operator computed: the stand-in for
    an input that ran elsewhere — the shared nest's representative rows,
    the exchange's coordinator-merged groups."""

    def __init__(self, context: _Context, columns: tuple[str, ...]):
        super().__init__()
        self._context = context
        self._columns = columns
        self._fed: dict[str, list] = {}
        self._length = 0

    def feed(self, columns: dict[str, list], length: int) -> None:
        self._fed = columns
        self._length = length
        self.rows_produced = 0

    def batches(self) -> Iterator[Chunk]:
        for chunk in _column_chunks(
            self._fed, self._length, self._context.batch_size
        ):
            yield self._emit_chunk(chunk)

    def describe(self) -> str:
        return f"Materialized({','.join(self._columns)})"


@dataclass(frozen=True, eq=False)
class MaterializedInput(Operator):
    """Logical stand-in for a :class:`PMaterializedSource`: a leaf that
    builds itself, so the planner plans whatever stands above it."""

    source: PMaterializedSource
    source_columns: tuple[str, ...]

    def columns(self) -> tuple[str, ...]:
        return self.source_columns

    def build_physical(self, context: _Context) -> PhysicalOperator:
        return self.source


class PSeed(PhysicalOperator):
    """The singleton empty-environment stream: one row, no columns."""

    def batches(self) -> Iterator[Chunk]:
        yield self._emit_chunk(Chunk({}, 1))


class PSelect(PhysicalOperator):
    """Pipelined selection."""

    def __init__(self, context: _Context, child: PhysicalOperator, pred: Term):
        super().__init__()
        self._context = context
        self.child = child
        self.pred = pred
        self._holds = self._pred_kernel(context, pred)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def batches(self) -> Iterator[Chunk]:
        kernel = self._holds
        if kernel.trivial_true:
            for chunk in self.child.batches():
                yield self._emit_chunk(chunk)
            return
        for chunk in self.child.batches():
            flags, t, err = self._run_kernel(kernel, chunk.columns, chunk.length)
            if err is None and all(flags):
                # Every row passed: pass the chunk through unchanged.
                yield self._emit_chunk(chunk)
            else:
                # flags covers rows [0, t); compress truncates each column
                # to it, dropping both failures and unevaluated rows.
                count = flags.count(True)
                if count:
                    columns = {
                        name: list(compress(col, flags))
                        for name, col in chunk.columns.items()
                    }
                    yield self._emit_chunk(Chunk(columns, count))
            if err is not None:
                raise err

    def describe(self) -> str:
        return f"Select({self.pred})"


class PMap(PhysicalOperator):
    """Pipelined computed-column extension."""

    def __init__(
        self,
        context: _Context,
        child: PhysicalOperator,
        bindings: tuple[tuple[str, Term], ...],
    ):
        super().__init__()
        self._context = context
        self.child = child
        self.bindings = bindings
        self._binding_kernels = tuple(
            (name, self._kernel(context, expr)) for name, expr in bindings
        )

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def batches(self) -> Iterator[Chunk]:
        kernels = self._binding_kernels
        for chunk in self.child.batches():
            columns = dict(chunk.columns)
            n = chunk.length
            err = None
            for name, kernel in kernels:
                # Later bindings see earlier ones: each kernel runs over the
                # progressively extended column set.  An error truncates the
                # chunk to the rows that evaluated fully; the error replays
                # after them.
                values, t, e = self._run_kernel(kernel, columns, n)
                if t < n:
                    n = t
                    err = e
                    columns = {k: col[:n] for k, col in columns.items()}
                columns[name] = values
            if n:
                yield self._emit_chunk(Chunk(columns, n))
            if err is not None:
                raise err

    def describe(self) -> str:
        inner = ", ".join(f"{n}={e}" for n, e in self.bindings)
        return f"Map({inner})"


class PHashJoin(PhysicalOperator):
    """Hash (outer-)join on extracted equi-keys, with a residual predicate.

    The build-side hash table is constructed on the first ``batches()``
    entry and reused by re-entries (e.g. when this join is the inner of a
    nested loop), so the build input's rows are produced exactly once per
    execution.

    With no keys it is the nested-loop join: the table is one bucket
    holding all ``m`` right rows, and the probe takes ``batch_size // m``
    left rows (at least one) at a time, so a slice's candidate pairs — and
    its output chunk — stay within ``max(batch_size, m)`` rows and its work
    units settle at once.
    """

    def __init__(
        self,
        context: _Context,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: tuple[Term, ...],
        right_keys: tuple[Term, ...],
        residual: Term,
        right_columns: tuple[str, ...],
        outer: bool,
        bare: tuple[Sequence[bool], Sequence[bool]],
        reuse_key: Any = None,
    ):
        super().__init__()
        self._context = context
        self.left = left
        self.right = right
        self.residual = residual
        self.right_columns = right_columns
        self.outer = outer
        self._holds = self._pred_kernel(context, residual)
        self._holds_vars = free_vars(residual)
        self.left_keys = left_keys
        self.right_keys = right_keys
        self._left_key_kernels = tuple(self._kernel(context, k) for k in left_keys)
        self._right_key_kernels = tuple(self._kernel(context, k) for k in right_keys)
        self._bare = bare  # see _filed
        self.reuse_key = reuse_key  # see repro.engine.reuse
        #: ``(table, columns)`` once built: the right rows' positions under
        #: their join keys, and the right input's columns.
        self._built: tuple[dict[Any, list[int]], dict[str, list]] | None = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def _build(self) -> tuple[tuple[dict[Any, list[int]], list[list]], bool]:
        """Buffer the right input and index it: the table and the columns,
        in ``right_columns`` order.  Every column ends in one NULL past its
        last row, so position -1 reads as an outer pad."""
        cols: dict[str, list] = {col: [] for col in self.right_columns}
        table: dict[Any, list[int]] = {}
        for chunk_cols, offset, length in self._buffered(self.right, cols):
            key_parts, _, err = self._key_columns(
                self._right_key_kernels, chunk_cols, length
            )
            if err is not None:
                # A key-expression fault fails the build at that right row.
                raise err
            _index_rows(table, key_parts, offset, length, self._bare[1])
        for col in cols.values():
            col.append(NULL)
        return (table, list(cols.values())), True

    def batches(self) -> Iterator[Chunk]:
        if self._built is None:
            table, columns = reused(self, self._build)
            self._built = table, dict(zip(self.right_columns, columns))
        table, right_cols = self._built
        outer = self.outer
        governor = self._context.governor
        trivial = self._holds.trivial_true
        chunks = self.left.batches()
        # An empty build matches no key, so none is evaluated: no fault.
        key_kernels = self._left_key_kernels if table else ()
        if not self.left_keys:
            # One bucket of m rows: probe batch_size // m left rows at a time.
            step = max(1, self._context.batch_size // max(1, len(table.get((), ()))))
            chunks = (
                part
                for chunk in chunks
                for part in _column_chunks(chunk.columns, chunk.length, step)
            )
        for chunk in chunks:
            cols = chunk.columns
            key_parts, n, kerr = self._key_columns(key_kernels, cols, chunk.length)
            # One probe pass builds the output row index — each left row's
            # candidate right rows, by position — and every column is then
            # gathered with one comprehension instead of per-row appends.
            # Without a residual (and without a key fault to order against)
            # the candidates are the matches and the pads go in here.
            plain = trivial and kerr is None
            parent_of: list[int] = []
            positions: list[int] = []
            pads = 0
            buckets = _probe_rows(table, key_parts, n, self._bare[0])
            for i, bucket in enumerate(buckets):
                if bucket:
                    positions.extend(bucket)
                    parent_of.extend([i] * len(bucket))
                elif outer and plain:
                    positions.append(-1)
                    parent_of.append(i)
                    pads += 1
            added = {
                name: [col[p] for p in positions]
                for name, col in right_cols.items()
            }
            if not plain:
                yield from self._emit_candidates(cols, n, parent_of, added, kerr)
                continue
            if governor is not None:
                governor.tick_many(len(positions) - pads)
            if parent_of:
                yield self._gathered(cols, parent_of, added)

    def describe(self) -> str:
        if not self.left_keys:
            return f"{'OuterNLJoin' if self.outer else 'NLJoin'}({self.residual})"
        kind = "HashOuterJoin" if self.outer else "HashJoin"
        keys = ", ".join(
            f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        if self.residual != TRUE:
            return f"{kind}({keys}; residual {self.residual})"
        return f"{kind}({keys})"


class PIndexScan(PHashJoin):
    """Index access path: the objects whose indexed attribute equals a
    closed key ("choosing access paths", paper Section 6) — the one-row
    seed, keyed by the key, hash-joined to the extent's scan, keyed by
    ``var.attr``.  Its table is the kept build a hash join of that scan on
    that key reads; a NULL key finds nothing, and over an empty extent the
    key is not evaluated.  An EXPLAIN leaf."""

    def __init__(
        self,
        context: _Context,
        scan: PScan,
        attr: str,
        key: Term,
        bare: tuple[Sequence[bool], Sequence[bool]],
        reuse_key: Any,
    ):
        var, occurrence = scan.var, scan._occurrence
        columns = (var,) if occurrence is None else (var, occurrence)
        super().__init__(
            context, PSeed(), scan, (key,), (Proj(Var(var), attr),), TRUE, columns,
            False, bare, reuse_key,
        )
        self.extent, self.var, self.attr, self.key = scan.extent, var, attr, key
        self._occurrence = occurrence  # a scan's, for a kept build's shape

    def children(self) -> tuple[PhysicalOperator, ...]:
        return ()

    def describe(self) -> str:
        return f"IndexScan({self.var} <- {self.extent} on {self.attr} = {self.key})"


def _positions(parent_of: list[int]) -> list[int]:
    """Each candidate's position among its parent's, where a parent's
    candidates lie in one run."""
    return [pos for _, run in groupby(parent_of) for pos, _ in enumerate(run)]


class PUnnest(PhysicalOperator):
    """Pipelined (outer-)unnest of a collection-valued path (a row's
    occurrence: its element's position; an outer pad's is 0 or NULL)."""

    def __init__(
        self,
        context: _Context,
        child: PhysicalOperator,
        path: Term,
        var: str,
        pred: Term,
        outer: bool,
    ):
        super().__init__()
        self._context = context
        self.child = child
        self.path = path
        self.var = var
        self.pred = pred
        self.outer = outer
        self._path_kernel = self._kernel(context, path)
        self._holds = self._pred_kernel(context, pred)
        self._holds_vars = free_vars(pred)
        self._occurrence = context.occurrences.get(var)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def batches(self) -> Iterator[Chunk]:
        path_kernel = self._path_kernel
        var = self.var
        occ = self._occurrence
        governor = self._context.governor
        trivial = self._holds.trivial_true
        # Without a predicate a row's outer pad is known while expanding;
        # with one, _emit_candidates pads the rows no candidate survives.
        pad = self.outer and trivial
        for chunk in self.child.batches():
            cols = chunk.columns
            paths, limit, err = self._run_kernel(path_kernel, cols, chunk.length)
            # Expand parents into (parent index, element) candidate pairs.
            parent_of: list[int] = []
            elements: list[Any] = []
            total = 0
            for i in range(limit):
                value = paths[i]
                if is_null(value):
                    elems: list = []
                elif isinstance(value, CollectionValue):
                    elems = list(value.elements())
                else:
                    err = EvaluationError(
                        f"unnest path evaluated to {type(value).__name__}"
                    )
                    limit = i
                    break
                if elems:
                    total += len(elems)
                    elements.extend(elems)
                    parent_of.extend([i] * len(elems))
                elif pad:
                    parent_of.append(i)
                    elements.append(NULL)
            added = {var: elements}
            if occ is not None:
                added[occ] = _positions(parent_of)
            if not trivial:
                yield from self._emit_candidates(cols, limit, parent_of, added, err)
                continue
            if governor is not None:
                governor.tick_many(total)
            if parent_of:
                yield self._gathered(cols, parent_of, added)
            if err is not None:
                raise err

    def describe(self) -> str:
        kind = "OuterUnnest" if self.outer else "Unnest"
        return f"{kind}({self.var} <- {self.path})"


class PHashNest(PhysicalOperator):
    """Hash-based grouping implementation of the nest operator.

    Grouping is a blocking operation: the child stream is consumed and the
    groups accumulated on the first ``batches()`` entry, then replayed by
    any re-entry without re-running the child.
    """

    def __init__(
        self,
        context: _Context,
        child: PhysicalOperator,
        monoid: Monoid,
        head: Term,
        group_by: tuple[str, ...],
        null_vars: tuple[str, ...],
        out_var: str,
        pred: Term,
        bare: Sequence[bool],
    ):
        super().__init__()
        self._context = context
        self.child = child
        self.monoid = monoid
        self.head = head
        self.group_by = group_by
        self.null_vars = null_vars
        self.out_var = out_var
        self.pred = pred
        self._head_kernel = self._kernel(context, head)
        self._head_vars = free_vars(head)
        self._holds = self._pred_kernel(context, pred)
        self._group_columns: tuple[dict[str, list], int] | None = None
        #: Per grouping variable, the column keying a group: its occurrence
        #: where it has one.  A group carries out both, for an outer nest.
        #: Keys are :func:`_filed` — distinct stored objects with equal state
        #: form distinct groups — but an occurrence is filed bare.
        self._keys = self.carried = group_by
        self._bare = bare
        occ = context.occurrences
        if occ:
            self._keys = tuple(occ.get(col, col) for col in group_by)
            self.carried += tuple(occ[col] for col in group_by if col in occ)
            self._bare = tuple(b or col in occ for col, b in zip(group_by, bare))

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def accumulate(self, raw: bool = False):
        """The grouping build: kernels over child chunks.

        Returns ``(groups, key_cols)``: the accumulators by group key — a
        dict, so in first-seen order — and, aligned with them, one column
        per :attr:`carried` column, appended to when a group opens.  A group
        opens for *every* row (before null-var/predicate filtering); the
        head kernel runs once per chunk over the filter-surviving rows and
        merges in stream order.
        Collection-monoid accumulators are plain element lists (built into
        the collection once at the end — per-row immutable merges would
        copy the accumulator every row); primitive ones are pre-finalize
        carriers with NULL heads skipped, or — with ``raw=True``, for the
        exchange layer — element lists as well, so a coordinator can merge
        lists across partitions and replay the serial NULL-skipping fold
        instead of reassociating carriers (which would perturb float
        results).  The caller finalizes: :meth:`_groups`, or the exchange's
        own fold.
        """
        monoid = self.monoid
        merge = monoid.merge
        lift = monoid.lift
        groups: dict[Any, Any] = {}
        key_cols: dict[str, list] = {col: [] for col in self.carried}
        collection = isinstance(monoid, CollectionMonoid)
        use_list = collection or raw
        charge = self._context.charge_fn() if collection else None
        buffered = 0
        for chunk in self.child.batches():
            cols = chunk.columns
            limit, picked, values, err = self._kept_heads(
                cols, chunk.length, self.null_vars
            )
            keys = (
                _filed([cols[k][:limit] for k in self._keys], self._bare)
                if self._keys
                else [()] * limit
            )
            for i, key in enumerate(keys):
                if key not in groups:
                    groups[key] = [] if use_list else monoid.zero
                    for name, col in key_cols.items():
                        col.append(cols[name][i])
            if charge is not None:
                charge_values(charge, values, buffered)
                buffered += len(values)
            for value, i in zip(values, picked):
                key = keys[i]
                if use_list:
                    groups[key].append(value)
                elif value is not NULL:
                    groups[key] = merge(groups[key], lift(value))
            if err is not None:
                raise err
        return groups, key_cols

    def _groups(self) -> tuple[dict[str, list], int]:
        """The memoized groups: their columns and how many there are."""
        if self._group_columns is None:
            groups, columns = self.accumulate()
            monoid = self.monoid
            fold = (
                monoid.fold_elements
                if isinstance(monoid, CollectionMonoid)
                else monoid.finalize
            )
            columns[self.out_var] = list(map(fold, groups.values()))
            self._group_columns = (columns, len(groups))
        return self._group_columns

    def batches(self) -> Iterator[Chunk]:
        for chunk in _column_chunks(*self._groups(), self._context.batch_size):
            yield self._emit_chunk(chunk)

    def describe(self) -> str:
        group = ",".join(self.group_by) or "()"
        return f"HashNest({self.monoid.name} -> {self.out_var} by {group})"


#: Element slot of a right row the nest's null-variable or predicate
#: filter drops.
_SKIP = object()


class _Fault:
    """Element slot of a right row whose nest predicate or head faulted:
    the error surfaces only if a left row reaches the element."""

    __slots__ = ("error",)

    def __init__(self, error: Exception):
        self.error = error


class PGroupJoin(PhysicalOperator):
    """The nest of a left outer-join by the join's left columns, as a map
    over the left stream: the paper's ``Γ ∘ =⋈`` pair, no join between.

    Where ``PHashNest`` over ``PHashJoin``, keyed or not, builds every
    joined pair only to hash it back onto the left row it came from, this
    operator never forms a pair.  **Build** hashes the right input on the
    equi-keys (no keys: one bucket) and runs the nest's predicate and head
    kernels once per *right row*; a fault there waits in the row's element
    slot, since the pair evaluates it only where a left row meets the row;
    then it folds each bucket.  **Probe** streams: each left row is its own
    group — an element of a bag or list is keyed by its occurrence — so a
    left chunk leaves with its own columns plus ``out_var``, each row
    carrying its bucket's value.  Under a residual predicate, which selects
    the elements per left row, each row folds them anew.

    What the pair would let a caller observe is kept: rows fold their
    elements in bucket order (float sums, list and bag order), the first
    fault in (left row, bucket position) order is raised after the rows
    before it, every candidate pair is a work unit, the build charges the
    right chunks it reads and a collection monoid charges each row's
    elements as if buffered per pair.  ``child`` is the probe (left) side.
    """

    def __init__(
        self,
        context: _Context,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: tuple[Term, ...],
        right_keys: tuple[Term, ...],
        residual: Term,
        right_columns: tuple[str, ...],
        monoid: Monoid,
        head: Term,
        group_by: tuple[str, ...],
        null_vars: tuple[str, ...],
        out_var: str,
        pred: Term,
        bare: tuple[Sequence[bool], Sequence[bool]],
        reuse_key: Any = None,
    ):
        super().__init__()
        self._context = context
        self.child = left
        self.right = right
        self.monoid = monoid
        self.group_by = group_by
        self.null_vars = null_vars
        self.out_var = out_var
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.right_columns = right_columns
        self._head_kernel = self._kernel(context, head)
        self._head_vars = free_vars(head)
        self._holds = self._pred_kernel(context, pred)
        self._left_key_kernels = tuple(self._kernel(context, k) for k in left_keys)
        self._right_key_kernels = tuple(self._kernel(context, k) for k in right_keys)
        self._residual_holds = self._pred_kernel(context, residual)
        self._bare = bare
        self.reuse_key = reuse_key
        self._built: tuple[dict[Any, tuple], bool] | None = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child, self.right)

    def _run_total(
        self, kernel: CompiledKernel, cols: Mapping[str, list], n: int
    ) -> tuple[list, bool]:
        """A kernel over all *n* rows with faults kept in place: a faulting
        row's slot holds its error and evaluation resumes on the next row.
        Returns the slots and whether any faulted."""
        values, _, err = self._run_kernel(kernel, cols, n)
        faulted = err is not None
        while err is not None:
            values.append(_Fault(err))
            start = len(values)
            if start == n:
                break
            rest = {name: col[start:n] for name, col in cols.items()}
            more, _, err = self._run_kernel(kernel, rest, n - start)
            values.extend(more)
        return values, faulted

    def _build(self) -> tuple[tuple[dict[Any, tuple], bool], bool]:
        """Consume the right input: ``((table, clean), keep)``, *clean* if
        each right row's nest element is a head value (not ``_SKIP`` or a
        ``_Fault``), *keep* if none faulted.  ``table`` maps a join key to
        its bucket's ``(pairs, value, elems)`` — candidate pairs, the fold
        (or the ``_Fault`` that cut it short) and, for a collection's byte
        charge, the elements — or, under a residual, to ``(cols, slots)``:
        the right columns it reads, in order, and the element slots."""
        pred_kernel = self._holds
        head_kernel = self._head_kernel
        key_kernels = self._right_key_kernels
        head_vars = self._head_vars
        residual_vars = free_vars(self.residual)
        rcols: dict[str, list] = {
            name: [] for name in self.right_columns if name in residual_vars
        }
        rows_of: dict[Any, Any] = {}
        elements: list = []
        clean = True
        for cols, offset, n in self._buffered(self.right, rcols):
            key_parts, _, err = self._key_columns(key_kernels, cols, n)
            if err is not None:
                # A key-expression fault fails the build at that right row.
                raise err
            if pred_kernel.trivial_true:
                flags = None
            else:
                # On every joined row, kept by the null filter or not.
                flags, _ = self._run_total(pred_kernel, cols, n)
            dropped = {
                i
                for col in self.null_vars
                for i, value in enumerate(cols[col])
                if value is NULL
            }
            if flags is not None:
                dropped.update(i for i, f in enumerate(flags) if f is not True)
            if not dropped:
                values, dirty = self._run_total(head_kernel, cols, n)
            else:
                dirty = True
                values = (
                    [_SKIP] * n
                    if flags is None
                    else [f if f.__class__ is _Fault else _SKIP for f in flags]
                )
                picked = [i for i in range(n) if i not in dropped]
                if picked:
                    scols = {
                        name: [col[i] for i in picked]
                        for name, col in cols.items()
                        if name in head_vars
                    }
                    heads, _ = self._run_total(head_kernel, scols, len(picked))
                    for i, value in zip(picked, heads):
                        values[i] = value
            clean = clean and not dirty
            elements.extend(values)
            _index_rows(rows_of, key_parts, offset, n, self._bare[1])
        keep = clean or not any(slot.__class__ is _Fault for slot in elements)
        table: dict[Any, tuple] = {}
        if not self._residual_holds.trivial_true:
            for key, rows in rows_of.items():
                cols = [[col[r] for r in rows] for col in rcols.values()]
                table[key] = (cols, [elements[r] for r in rows])
            return (table, clean), keep
        collection = isinstance(self.monoid, CollectionMonoid)
        shared: dict[Any, tuple] = {}  # equal scalar buckets, one tuple
        for key, rows in rows_of.items():
            elems, fault = [elements[r] for r in rows], None
            if not clean:
                elems, fault = self._kept(elems)
            try:
                value = _Fault(fault) if fault else self._fold(elems)
            except Exception as exc:  # noqa: BLE001 - raised where reached
                value = _Fault(exc)
            keep = keep and value.__class__ is not _Fault
            bucket = (len(rows), value, elems if collection else None)
            if not collection:
                bucket = shared.setdefault((bucket[0], exact_key(value)), bucket)
            table[key] = bucket
        return (table, clean), keep

    @staticmethod
    def _kept(slots: list) -> tuple[list, Exception | None]:
        """The head values among element *slots* up to the first fault,
        and that fault."""
        kept = []
        for slot in slots:
            if slot.__class__ is _Fault:
                return kept, slot.error
            if slot is not _SKIP:
                kept.append(slot)
        return kept, None

    def _fold(self, elems: list) -> Any:
        """The nest's value of one row's elements."""
        monoid = self.monoid
        if isinstance(monoid, CollectionMonoid):
            return monoid.fold_elements(elems)
        return monoid.finalize(fold_skipping_nulls(monoid, monoid.zero, elems))

    def batches(self) -> Iterator[Chunk]:
        if self._built is None:
            self._built = reused(self, self._build)
        table, clean = self._built
        governor = self._context.governor
        collection = isinstance(self.monoid, CollectionMonoid)
        charge = self._context.charge_fn() if collection else None
        buffered = 0
        residual_kernel = self._residual_holds
        plain = residual_kernel.trivial_true
        residual_vars = free_vars(self.residual)
        read = [n for n in self.right_columns if n in residual_vars]
        needed_left = [n for n in residual_vars if n not in self.right_columns]
        pad_checked = self._holds.trivial_true
        unmatched = self._fold([])
        # An empty build matches no key, so none is evaluated: no fault.
        key_kernels = self._left_key_kernels if table else ()
        for chunk in self.child.batches():
            cols = chunk.columns
            key_parts, n, err = self._key_columns(key_kernels, cols, chunk.length)
            buckets = _probe_rows(table, key_parts, n, self._bare[0])
            if plain and governor is not None:
                governor.tick_many(sum(b[0] for b in buckets if b is not None))
            out: list = []
            for i, bucket in enumerate(buckets):
                if bucket is None:
                    elems: list = []
                    value = unmatched
                    padded = True
                elif plain:
                    _, value, elems = bucket
                    if value.__class__ is _Fault:
                        err = value.error
                        break
                    padded = False
                else:
                    # The bucket's rows that pass the residual against this
                    # left row: one kernel call over the whole bucket.
                    bcols, slots = bucket
                    k = len(slots)
                    probe = dict(zip(read, bcols))
                    for name in needed_left:
                        probe[name] = [cols[name][i]] * k
                    flags, passed, perr = self._run_kernel(
                        residual_kernel, probe, k
                    )
                    if governor is not None:
                        governor.tick_many(passed + 1 if perr is not None else k)
                    elems = list(compress(slots, flags))
                    if not clean:
                        elems, fault = self._kept(elems)
                        if fault is not None:
                            perr = fault  # it precedes the residual's own
                    if perr is not None:
                        err = perr
                        break
                    value = self._fold(elems)
                    padded = True not in flags
                if padded and not pad_checked:
                    # The pair evaluates the nest predicate on each padded
                    # row (every right column NULL), where it can only fault.
                    pad = {col: [NULL] for col in self.right_columns}
                    fault = self._run_kernel(self._holds, pad, 1)[2]
                    if fault is not None:
                        err = fault
                        break
                    pad_checked = True
                if charge is not None:
                    # As if buffered per pair, in the stream of kept elements.
                    charge_values(charge, elems, buffered)
                    buffered += len(elems)
                out.append(value)
            if out:
                columns = dict(cols)
                if len(out) < chunk.length:  # a fault cut the chunk short
                    columns = {name: col[: len(out)] for name, col in cols.items()}
                columns[self.out_var] = out
                yield self._emit_chunk(Chunk(columns, len(out)))
            if err is not None:
                raise err

    def describe(self) -> str:
        group = ",".join(self.group_by) or "()"
        parts = [f"{self.monoid.name} -> {self.out_var} by {group}"]
        if self.left_keys:
            parts.append(
                ", ".join(
                    f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
                )
            )
        if self.residual != TRUE:
            parts.append(f"residual {self.residual}")
        return f"GroupJoin({'; '.join(parts)})"


class PSharedNest(PhysicalOperator):
    """A nest whose groups are the rows of a descendant ``L``, run over the
    distinct *bindings* of what its spine reads of them.

    The unnested form of a nested box groups by every outer variable, so
    the spine between the nest and ``L`` — outer-joins, outer-unnests and
    inner nests — does the box's work once per ``L`` row even when all it
    reads of the row is a few expressions ``e1..ek``.  This operator drains
    ``L`` (``child``), evaluates the ``e`` kernels column-at-a-time, and
    feeds the spine — planned once, over a :class:`PMaterializedSource`
    standing in for ``L`` — only the first row of each distinct binding;
    every ``L`` row then leaves, in stream order, with the value its
    binding's representative got.  The spine's operators run unchanged and
    see fewer rows.

    There is one path, and the data picks the representatives.  They are
    simply *all* rows when no two rows share a binding (nothing to share)
    or when a binding expression faults (whether that fault is ever reached
    is for the spine to decide); the spine's groups are then the output as
    they stand.  Every ``L`` row is its own group of the spine — an element
    of a bag or list is keyed by its occurrence — so the value its
    representative got is its own.

    A fault held from ``L``'s stream is raised after the spine has run over
    the rows that preceded it, so an earlier fault inside the spine wins as
    it does when the spine pulls ``L`` itself.  A ``GovernorError`` is not
    held: ``L`` is drained first, so a limit that trips inside it wins over
    a spine fault, as it does in any blocking build.  Buffering ``L`` is
    charged like any other.
    """

    def __init__(
        self,
        context: _Context,
        left: PhysicalOperator,
        source: PMaterializedSource,
        spine: "PHashNest",
        bindings: tuple[Term, ...],
    ):
        super().__init__()
        self._context = context
        self.child = left
        self.source = source
        self.spine = spine
        self.bindings = bindings
        self._binding_kernels = tuple(self._kernel(context, e) for e in bindings)
        #: ``(columns, rows)`` of the shared output once computed; columns
        #: None when nothing was shared and the spine's groups are the output.
        self._out: tuple[dict[str, list] | None, int] | None = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.spine, self.child)

    def _drain(self) -> tuple[dict[str, list], int, list[int] | None, Any]:
        """Buffer ``L``: its columns, row count, each row's representative
        (the position of the first row with its binding; None when a
        binding faulted) and the fault that ended the stream, if any."""
        cols: dict[str, list] = {name: [] for name in self.spine.carried}
        first_of: dict[Any, int] = {}
        rep_of: list[int] | None = []
        n = 0
        held = None
        try:
            for ccols, offset, length in self._buffered(self.child, cols):
                n = offset + length
                if rep_of is not None:
                    parts, _, err = self._key_columns(
                        self._binding_kernels, ccols, length
                    )
                    if err is not None:
                        rep_of = None
                    else:
                        # exact_key, not identity_key: 1, 1.0 and True — or
                        # {{1, 2}} and {{1.0, 2}} — are equal as dict keys
                        # but not as inputs to the spine.
                        exact = [list(map(exact_key, part)) for part in parts]
                        keys = zip(*exact) if exact else [()] * length
                        setdefault = first_of.setdefault
                        rep_of.extend(
                            setdefault(key, pos)
                            for pos, key in enumerate(keys, offset)
                        )
        except GovernorError:
            raise
        except Exception as exc:  # noqa: BLE001 - held, raised after the spine
            held = exc
        return cols, n, rep_of, held

    def _share(self) -> tuple[dict[str, list] | None, int]:
        cols, n, rep_of, held = self._drain()
        spine = self.spine
        # The representatives, in stream order.
        firsts = [] if rep_of is None else list(dict.fromkeys(rep_of))
        if rep_of is None or len(firsts) == n:
            self.source.feed(cols, n)
            spine._groups()
            if held is not None:
                raise held
            return None, n
        keys, bare = spine._keys, spine._bare
        ids = _filed([cols[k] for k in keys], bare)
        self.source.feed(
            {name: [col[i] for i in firsts] for name, col in cols.items()},
            len(firsts),
        )
        out_var = spine.out_var
        value_of: dict[Any, Any] = {}
        for chunk in spine.batches():
            value_of.update(
                zip(
                    _filed([chunk.columns[k] for k in keys], bare),
                    chunk.columns[out_var],
                )
            )
        if held is not None:
            raise held
        values = [value_of.get(ids[r], _SKIP) for r in rep_of]
        if len(value_of) < len(firsts):
            # A selection in the spine dropped some bindings' rows.
            keep = [value is not _SKIP for value in values]
            cols = {name: list(compress(col, keep)) for name, col in cols.items()}
            values = list(compress(values, keep))
        cols[out_var] = values
        return cols, len(values)

    def batches(self) -> Iterator[Chunk]:
        if self._out is None:
            self._out = self._share()
        columns, n = self._out
        chunks = (
            self.spine.batches()
            if columns is None
            else _column_chunks(columns, n, self._context.batch_size)
        )
        for chunk in chunks:
            yield self._emit_chunk(chunk)

    def describe(self) -> str:
        spine = self.spine
        per = ", ".join(str(e) for e in self.bindings) or "()"
        return f"SharedNest({spine.monoid.name} -> {spine.out_var} per {per})"


def _account_result(op: PhysicalOperator, result: Any) -> Any:
    """EXPLAIN ANALYZE accounting for a root: it "produces" the result —
    one row per element of a collection result, one row for a scalar."""
    op.rows_produced = len(result) if isinstance(result, CollectionValue) else 1
    return result


class PReduce(PhysicalOperator):
    """Streaming reduce; short-circuits the boolean quantifier monoids."""

    def __init__(
        self,
        context: _Context,
        child: PhysicalOperator,
        monoid: Monoid,
        head: Term,
        pred: Term,
    ):
        super().__init__()
        self._context = context
        self.child = child
        self.monoid = monoid
        self.head = head
        self.pred = pred
        self._head_kernel = self._kernel(context, head)
        self._head_vars = free_vars(head)
        self._holds = self._pred_kernel(context, pred)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def value(self) -> Any:
        monoid = self.monoid
        if isinstance(monoid, CollectionMonoid):
            # One-pass bulk construction instead of per-row immutable
            # merges (which copy the whole accumulator every row).
            return _account_result(
                self, monoid.fold_elements(self.partial_value())
            )
        merge = monoid.merge
        lift = monoid.lift
        result = monoid.zero
        is_all = monoid.name == "all"
        is_some = monoid.name == "some"
        for chunk in self.child.batches():
            _, _, values, err = self._kept_heads(chunk.columns, chunk.length)
            for head in values:
                if head is NULL:
                    continue
                result = merge(result, lift(head))
                # Short-circuit *before* raising: the rows past the
                # deciding one — the faulting row among them — do not count.
                if is_all and result is False:
                    return _account_result(self, False)
                if is_some and result is True:
                    return _account_result(self, True)
            if err is not None:
                raise err
        return _account_result(self, monoid.finalize(result))

    def partial_value(self) -> list:
        """The head values over the predicate-surviving rows, in stream
        order, NULLs included — the whole stream here, one partition's for
        the exchange workers (the serial primitive fold skips NULLs at
        merge time; the coordinator replays that exact fold over the
        partition-order concatenation, so float arithmetic and collection
        order match serial execution bit for bit under range
        partitioning).  Quantifier roots (some/all) never reach here from
        the exchange — the planner keeps short-circuiting queries serial.
        No result accounting happens here; the root owns it.
        """
        elements: list = []
        for chunk in self.child.batches():
            _, _, values, err = self._kept_heads(chunk.columns, chunk.length)
            elements.extend(values)
            if err is not None:
                raise err
        return elements

    def describe(self) -> str:
        return f"Reduce({self.monoid.name} / {self.head})"


class PEval(PhysicalOperator):
    """Root for non-comprehension queries: expression over one tuple."""

    def __init__(self, context: _Context, child: PhysicalOperator, expr: Term):
        super().__init__()
        self._context = context
        self.child = child
        self.expr = expr
        self._expr_kernel = self._kernel(context, expr)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def value(self) -> Any:
        chunks = list(self.child.batches())
        count = sum(chunk.length for chunk in chunks)
        if count != 1:
            raise EvaluationError(
                f"Eval root expected exactly one row, got {count}"
            )
        values, _, err = self._run_kernel(self._expr_kernel, chunks[0].columns, 1)
        if err is not None:
            raise err
        return _account_result(self, values[0])

    def describe(self) -> str:
        return f"Eval({self.expr})"


def root_value(op: PhysicalOperator) -> Any:
    """Run a complete physical plan.  Only a root has a value: a reduce, an
    eval, the exchange's gather — whatever the planner put there, it
    answers ``value()``; a stream operator at the root means the logical
    plan was not a complete query."""
    value = getattr(op, "value", None)
    if value is None:
        raise TypeError("a complete plan must be rooted at Reduce or Eval")
    return value()
