"""Physical (executable) operators — the chunk-at-a-time engine.

The paper's prototype translates algebraic forms into "physical plans that
are evaluated in memory" (Section 6).  This module provides those physical
algorithms:

* pipelined scan / select / map / unnest operators;
* **nested-loop** and **hash** implementations of join and left
  outer-join (the planner picks hash when it can extract equi-join keys —
  the very optimization the paper says unnesting enables for QUERY E);
* hash-based grouping for the nest operator (single pass);
* the **group-join**: a nest that groups an outer-join by the join's own
  left columns runs as one keyed operator, folding each left row's matches
  without the join ever materialising a pair;
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
  build side is its input's columns, extended chunk by chunk, plus the row
  *positions* filed under each join key; a nest's groups are one column per
  grouping variable, appended to when a group opens, plus the accumulators
  in first-seen order.  Each is memoized on first entry, so re-entering a
  restartable stream does not redo it; under a memory budget a build
  charges a stride-sampled byte estimate of the chunks it buffers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress, groupby
from typing import Any, Iterator, Mapping, Sequence

from repro.algebra.operators import Operator, occurrence
from repro.calculus.evaluator import EvaluationError, Evaluator as TermEvaluator, ExtentProvider
from repro.calculus.monoids import CollectionMonoid, Monoid, fold_skipping_nulls
from repro.calculus.terms import TRUE, Term, Var, free_vars
from repro.data.values import (
    NULL,
    CollectionValue,
    exact_key,
    identity_key,
    is_null,
)
from repro.engine.batch import DEFAULT_BATCH_SIZE, Chunk
from repro.engine.compile import CompiledKernel, ExprCompiler
from repro.engine.governor import SAMPLE_STRIDE, estimate_bytes
from repro.errors import GovernorError

Env = dict[str, Any]


class _Context:
    """Shared per-execution state: the database, the bound
    prepared-statement parameters (``:name`` placeholder values), the
    expression compiler with the interpreter its fallback nodes call, the
    optional per-execution :class:`~repro.engine.governor.Governor`, and
    the occurrence column of each variable *occurring* over a bag or list."""

    def __init__(
        self,
        database: ExtentProvider,
        params: Mapping[str, Any] | None = None,
        profile: bool = False,
        compiler: ExprCompiler | None = None,
        governor: Any | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        occurring: frozenset[str] = frozenset(),
    ):
        self.database = database
        self.params = dict(params) if params else {}
        self.profile = profile
        self.governor = governor
        self.batch_size = max(1, batch_size)
        self.occurrences = {var: occurrence(var) for var in occurring}
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


def _charge_values(charge, values: list, seen: int) -> None:
    """Charge buffered *values* the same way: *seen* were buffered before
    them, and one sampled value stands for its stride."""
    for j in range(-seen % SAMPLE_STRIDE, len(values), SAMPLE_STRIDE):
        charge(estimate_bytes(values[j]) * SAMPLE_STRIDE)


def _index_rows(rows_of: dict, key_parts: list[list], offset: int) -> None:
    """File build rows *offset*, *offset* + 1, … under their join keys.

    Keys are wrapped with identity_key so that a hash probe gives `=` on
    stored objects apply_binop's identity equality.  A single key (the
    common case) is filed bare — no tuple allocation per row — several as
    a tuple; :func:`_probe_rows` agrees on the representation.
    """
    setdefault = rows_of.setdefault
    if len(key_parts) == 1:
        for pos, value in enumerate(key_parts[0], offset):
            setdefault(identity_key(value), []).append(pos)
    else:
        for pos, parts in enumerate(zip(*key_parts), offset):
            setdefault(tuple(map(identity_key, parts)), []).append(pos)


def _probe_rows(table: dict, key_parts: list[list], n: int) -> list:
    """What each of *n* probing rows finds in *table*: None where the key
    is NULL in any part (a NULL never equi-joins) or has no build row.
    Without keys every row finds the one entry filed under ``()``."""
    get = table.get
    if not key_parts:
        return [get(())] * n
    if len(key_parts) == 1:
        return [
            None if value is NULL else get(identity_key(value))
            for value in key_parts[0]
        ]
    return [
        None
        if any(value is NULL for value in values)
        else get(tuple(map(identity_key, values)))
        for values in zip(*key_parts)
    ]


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
        extent (an index scan's: among the matches)."""
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


class PIndexScan(PScan):
    """Index access path: fetch only the objects whose indexed attribute
    equals a constant key ("choosing access paths", paper Section 6).

    The key expression must be closed (no free range variables); it is
    evaluated once per execution.
    """

    def __init__(
        self, context: _Context, extent: str, var: str, attr: str, key: Term
    ):
        super().__init__(context, extent, var)
        self.attr = attr
        self.key = key
        self._key_kernel = self._kernel(context, key)

    def _items(self) -> tuple[list, Sequence[int]]:
        values, _, err = self._run_kernel(self._key_kernel, {}, 1)
        if err is not None:
            raise err
        if is_null(values[0]):
            # attr = NULL is NULL, which a filter treats as false — but the
            # index stores NULL-attributed objects under the NULL key, so a
            # raw lookup would wrongly return them.
            return [], ()
        database = self._context.database
        items = list(database.index_lookup(self.extent, self.attr, values[0]))
        return items, range(len(items))

    def describe(self) -> str:
        return f"IndexScan({self.var} <- {self.extent} on {self.attr} = {self.key})"


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


class PNestedLoopJoin(PhysicalOperator):
    """Block nested-loop (outer-)join: the fallback join algorithm.

    The inner (right) input is materialized once per execution — not once
    per ``batches()`` entry — so a re-entered stream does not re-run the
    build side.
    """

    def __init__(
        self,
        context: _Context,
        left: PhysicalOperator,
        right: PhysicalOperator,
        pred: Term,
        right_columns: tuple[str, ...],
        outer: bool,
    ):
        super().__init__()
        self._context = context
        self.left = left
        self.right = right
        self.pred = pred
        self.right_columns = right_columns
        self.outer = outer
        self._holds = self._pred_kernel(context, pred)
        self._right: tuple[dict[str, list], int] | None = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def _materialize_right(self) -> tuple[dict[str, list], int]:
        """The right input as whole columns plus its row count."""
        if self._right is None:
            cols: dict[str, list] = {col: [] for col in self.right_columns}
            m = sum(length for _, _, length in self._buffered(self.right, cols))
            self._right = (cols, m)
        return self._right

    def batches(self) -> Iterator[Chunk]:
        """Vectorized probe: each left row is broadcast across the
        materialized right columns, so the predicate runs as one kernel
        call over all ``m`` right rows.  Only the left columns the
        predicate actually reads are broadcast.  Every pair reached is a
        work unit (the faulting pair included) — a cross-join blowup is
        charged even when it emits almost nothing — settled once per left
        row.  Matches preceding a fault are emitted, and the faulting left
        row gets no outer pad."""
        context = self._context
        pred_kernel = self._holds
        governor = context.governor
        right_cols, m = self._materialize_right()
        right_items = list(right_cols.items())
        needed = free_vars(self.pred)
        outer = self.outer
        size = context.batch_size
        trivial = pred_kernel.trivial_true
        out: dict[str, list] | None = None
        left_only: list[str] = []
        needed_left: list[str] = []
        produced = 0
        for chunk in self.left.batches():
            lcols = chunk.columns
            if out is None:
                left_only = [n for n in lcols if n not in right_cols]
                needed_left = [n for n in left_only if n in needed]
                out = {n: [] for n in left_only}
                for col in right_cols:
                    out[col] = []
            for i in range(chunk.length):
                if m:
                    probe = dict(right_cols)
                    for name in needed_left:
                        probe[name] = [lcols[name][i]] * m
                    if trivial:
                        flags, t, err = None, m, None
                    else:
                        flags, t, err = self._run_kernel(pred_kernel, probe, m)
                    if governor is not None:
                        governor.tick_many(t + 1 if err is not None else m)
                    count = m if flags is None else flags.count(True)
                    if count:
                        if count == m:
                            for col, rc in right_items:
                                out[col].extend(rc)
                        else:
                            for col, rc in right_items:
                                out[col].extend(compress(rc, flags))
                        for name in left_only:
                            out[name].extend([lcols[name][i]] * count)
                        produced += count
                    if err is not None:
                        if produced:
                            yield self._emit_chunk(Chunk(out, produced))
                        raise err
                    if count or not outer:
                        if produced >= size:
                            yield self._emit_chunk(Chunk(out, produced))
                            out = {n: [] for n in out}
                            produced = 0
                        continue
                # No pairs matched (or the right side is empty): outer pad.
                if outer:
                    for name in left_only:
                        out[name].append(lcols[name][i])
                    for col in right_cols:
                        out[col].append(NULL)
                    produced += 1
                if produced >= size:
                    yield self._emit_chunk(Chunk(out, produced))
                    out = {n: [] for n in out}
                    produced = 0
        if produced:
            yield self._emit_chunk(Chunk(out, produced))

    def describe(self) -> str:
        kind = "OuterNLJoin" if self.outer else "NLJoin"
        return f"{kind}({self.pred})"


class PHashJoin(PhysicalOperator):
    """Hash (outer-)join on extracted equi-keys, with a residual predicate.

    The build-side hash table is constructed on the first ``batches()``
    entry and reused by re-entries (e.g. when this join is the inner of a
    nested loop), so the build input's rows are produced exactly once per
    execution.
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
        #: ``(table, columns)`` once built: the right rows' positions under
        #: their join keys, and the right input's columns.
        self._built: tuple[dict[Any, list[int]], dict[str, list]] | None = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def _build(self) -> tuple[dict[Any, list[int]], dict[str, list]]:
        """Buffer the right input and index it.  Every column ends in one
        NULL past its last row, so position -1 reads as an outer pad."""
        cols: dict[str, list] = {col: [] for col in self.right_columns}
        table: dict[Any, list[int]] = {}
        for chunk_cols, offset, length in self._buffered(self.right, cols):
            key_parts, _, err = self._key_columns(
                self._right_key_kernels, chunk_cols, length
            )
            if err is not None:
                # A key-expression fault fails the build at that right row.
                raise err
            _index_rows(table, key_parts, offset)
        for col in cols.values():
            col.append(NULL)
        return table, cols

    def batches(self) -> Iterator[Chunk]:
        if self._built is None:
            self._built = self._build()
        table, right_cols = self._built
        outer = self.outer
        governor = self._context.governor
        trivial = self._holds.trivial_true
        for chunk in self.left.batches():
            cols = chunk.columns
            key_parts, n, kerr = self._key_columns(
                self._left_key_kernels, cols, chunk.length
            )
            # One probe pass builds the output row index — each left row's
            # candidate right rows, by position — and every column is then
            # gathered with one comprehension instead of per-row appends.
            # Without a residual (and without a key fault to order against)
            # the candidates are the matches and the pads go in here.
            plain = trivial and kerr is None
            parent_of: list[int] = []
            positions: list[int] = []
            pads = 0
            for i, bucket in enumerate(_probe_rows(table, key_parts, n)):
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
        kind = "HashOuterJoin" if self.outer else "HashJoin"
        keys = ", ".join(
            f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        if self.residual != TRUE:
            return f"{kind}({keys}; residual {self.residual})"
        return f"{kind}({keys})"


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
        self._keys = self.carried = group_by
        occ = context.occurrences
        if occ:
            self._keys = tuple(occ.get(col, col) for col in group_by)
            self.carried += tuple(occ[col] for col in group_by if col in occ)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _group_keys(self, cols: Mapping[str, list], limit: int) -> list:
        """The group key of each of the first *limit* rows of a chunk.

        Binding-aware grouping: distinct stored objects with equal state,
        and two occurrences of one element, form distinct groups (see
        algebra evaluator _nest).  Key extraction is column-at-a-time: map
        identity_key down each key column and zip the results into row
        keys, so the per-row cost is the identity_key call alone.
        """
        keys = self._keys
        if len(keys) == 1:
            return list(map(identity_key, cols[keys[0]][:limit]))
        if keys:
            return list(zip(*(map(identity_key, cols[col][:limit]) for col in keys)))
        return [()] * limit

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
        results).  The caller finalizes via :meth:`finalize_groups` or its
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
            keys = self._group_keys(cols, limit)
            for i, key in enumerate(keys):
                if key not in groups:
                    groups[key] = [] if use_list else monoid.zero
                    for name, col in key_cols.items():
                        col.append(cols[name][i])
            if charge is not None:
                _charge_values(charge, values, buffered)
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

    def finalize_groups(self, groups: dict) -> list:
        """Fold/finalize the accumulators into the ``out_var`` column."""
        monoid = self.monoid
        if isinstance(monoid, CollectionMonoid):
            return list(map(monoid.fold_elements, groups.values()))
        return list(map(monoid.finalize, groups.values()))

    def _groups(self) -> tuple[dict[str, list], int]:
        """The memoized groups: their columns and how many there are."""
        if self._group_columns is None:
            groups, columns = self.accumulate()
            columns[self.out_var] = self.finalize_groups(groups)
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
_UNFOLDED = object()


class _Fault:
    """Element slot of a right row whose nest predicate or head faulted:
    the error surfaces only if a left row reaches the element."""

    __slots__ = ("error",)

    def __init__(self, error: Exception):
        self.error = error


class _Bucket:
    """The right rows under one join key, in build order."""

    __slots__ = ("rows", "elements", "fault", "carrier", "cols")

    def __init__(self, rows: Any):
        #: Positions in the build-order right input.
        self.rows = rows
        #: Head values of the rows the nest keeps, up to the first fault
        #: (``fault``); None until a left row first probes the bucket.
        self.elements: list | None = None
        self.fault: Exception | None = None
        #: The primitive-monoid fold of ``elements``, once a group took it.
        self.carrier: Any = _UNFOLDED
        #: The right columns a residual reads, gathered for these rows.
        self.cols: Mapping[str, list] | None = None


class PGroupJoin(PHashNest):
    """The nest of a left outer-join by the join's left columns, as one
    keyed operator — the paper's ``Γ ∘ =⋈`` pair without the join between.

    Where ``PHashNest`` over ``PHashJoin``/``PNestedLoopJoin`` builds every
    joined pair only to hash it back onto the left row it came from, this
    operator never forms a pair.  **Build** hashes the right input on the
    equi-keys (no keys: one bucket) and runs the nest's predicate and head
    kernels once per *right row*; a fault there waits in the row's element
    slot, since the pair evaluates it only where a left row meets the row.
    **Probe** opens one group per left row, in stream order — no two left
    rows share a binding, since an element of a bag or list is keyed by its
    occurrence — and hands it the fold of its bucket, computed on the first
    probe and shared by every left row with that join key.  A residual
    predicate, which selects the elements per left row, folds them anew.

    What the pair would let a caller observe is kept: groups fold their
    elements in bucket order (float sums, list and bag order), the first
    fault in (left row, bucket position) order is the one raised, every
    candidate pair is a work unit, the build charges the right chunks it
    reads and a collection monoid charges each group's elements as if
    buffered per pair.  ``child`` is the probe (left) side.
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
    ):
        super().__init__(
            context, left, monoid, head, group_by, null_vars, out_var, pred
        )
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.right_columns = right_columns
        self._left_key_kernels = tuple(self._kernel(context, k) for k in left_keys)
        self._right_key_kernels = tuple(self._kernel(context, k) for k in right_keys)
        self._residual_holds = self._pred_kernel(context, residual)
        self._built: tuple | None = None

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

    def _build(self) -> tuple:
        """Consume the right input: ``(table, elements, clean, rcols)`` —
        the buckets by join key, each right row's nest element (its head
        value, ``_SKIP`` or a ``_Fault``), whether every element is a plain
        value, and the right columns the residual reads."""
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
            if key_parts:
                _index_rows(rows_of, key_parts, offset)
        if not key_kernels and elements:
            rows_of[()] = range(len(elements))
        table = {key: _Bucket(rows) for key, rows in rows_of.items()}
        return table, elements, clean, rcols

    def _check_pad(self) -> None:
        """The nest predicate over an outer pad (every right column NULL):
        the pair evaluates it on each padded row, where all it can do is
        fault."""
        pad = {col: [NULL] for col in self.right_columns}
        _, _, err = self._run_kernel(self._holds, pad, 1)
        if err is not None:
            raise err

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

    def accumulate(self, raw: bool = False):
        """``PHashNest.accumulate`` over the join that is never built: the
        same ``(groups, key_cols)``, one group per distinct left row.
        Element lists handed out under *raw* are the caller's to extend;
        otherwise the groups of one bucket share its list."""
        if self._built is None:
            self._built = self._build()
        table, elements, clean, rcols = self._built
        context = self._context
        governor = context.governor
        monoid = self.monoid
        collection = isinstance(monoid, CollectionMonoid)
        use_list = collection or raw
        charge = context.charge_fn() if collection else None
        buffered = 0
        residual_kernel = self._residual_holds
        plain = residual_kernel.trivial_true
        needed_left = [
            name for name in free_vars(self.residual) if name not in rcols
        ]
        pad_checked = self._holds.trivial_true
        groups: dict[Any, Any] = {}
        key_cols: dict[str, list] = {col: [] for col in self.carried}
        for chunk in self.child.batches():
            cols = chunk.columns
            key_parts, n, kerr = self._key_columns(
                self._left_key_kernels, cols, chunk.length
            )
            buckets = _probe_rows(table, key_parts, n)
            if plain and governor is not None:
                governor.tick_many(
                    sum(len(b.rows) for b in buckets if b is not None)
                )
            for i, key in enumerate(self._group_keys(cols, n)):
                bucket = buckets[i]
                if bucket is None:
                    elems: list = []
                    padded = True
                elif plain:
                    elems = bucket.elements
                    if elems is None:
                        elems = [elements[r] for r in bucket.rows]
                        if not clean:
                            elems, bucket.fault = self._kept(elems)
                        bucket.elements = elems
                    if bucket.fault is not None:
                        raise bucket.fault
                    padded = False
                else:
                    # The bucket's rows that pass the residual against this
                    # left row: one kernel call over the whole bucket.
                    rows = bucket.rows
                    k = len(rows)
                    if bucket.cols is None:
                        bucket.cols = {
                            name: [col[r] for r in rows]
                            for name, col in rcols.items()
                        }
                    probe = dict(bucket.cols)
                    for name in needed_left:
                        probe[name] = [cols[name][i]] * k
                    flags, passed, perr = self._run_kernel(
                        residual_kernel, probe, k
                    )
                    if governor is not None:
                        governor.tick_many(passed + 1 if perr is not None else k)
                    elems = [elements[r] for r in compress(rows, flags)]
                    if not clean:
                        elems, fault = self._kept(elems)
                        if fault is not None:
                            raise fault
                    if perr is not None:
                        raise perr
                    padded = True not in flags
                if padded and not pad_checked:
                    self._check_pad()
                    pad_checked = True
                if charge is not None:
                    # As if buffered per pair, in the stream of kept elements.
                    _charge_values(charge, elems, buffered)
                    buffered += len(elems)
                if key in groups:
                    continue  # one binding twice: never in a plan's stream
                shared = plain and bucket is not None
                for name, col in key_cols.items():
                    col.append(cols[name][i])
                if use_list:
                    groups[key] = list(elems) if shared and raw else elems
                elif shared:
                    if bucket.carrier is _UNFOLDED:
                        bucket.carrier = fold_skipping_nulls(
                            monoid, monoid.zero, elems
                        )
                    groups[key] = bucket.carrier
                else:
                    groups[key] = fold_skipping_nulls(monoid, monoid.zero, elems)
            if kerr is not None:
                raise kerr
        return groups, key_cols

    def finalize_groups(self, groups: dict) -> list:
        """Fold each shared element list once, however many groups hold it."""
        monoid = self.monoid
        if not isinstance(monoid, CollectionMonoid):
            return super().finalize_groups(groups)
        fold = monoid.fold_elements
        folded: dict[int, Any] = {}
        out = []
        for elems in groups.values():
            value = folded.get(id(elems))
            if value is None:
                value = folded[id(elems)] = fold(elems)
            out.append(value)
        return out

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
        ids = spine._group_keys(cols, n)
        self.source.feed(
            {name: [col[i] for i in firsts] for name, col in cols.items()},
            len(firsts),
        )
        out_var = spine.out_var
        value_of: dict[Any, Any] = {}
        for chunk in spine.batches():
            value_of.update(
                zip(
                    spine._group_keys(chunk.columns, chunk.length),
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
