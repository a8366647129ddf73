"""Exchange-style parallel execution: partitioned scans, a worker pool,
and a deterministic partition-order merge at the root.

The paper's grouping operators (hash-nest, hash-join) group by key and
therefore partition cleanly; this module exploits that.  A plan rooted at
``Reduce`` is decomposed into P partition-local pipelines — the driving
extent scan is replaced by a :class:`PartitionedScan` and each copy of the
plan runs in a ``concurrent.futures`` thread pool — plus a coordinator
(:class:`PGather`) that merges partial states in partition order.

**Determinism and exactness.**  The default partitioning is *range*
(contiguous slices of the extent, whose iteration order is itself
deterministic — see ``SetValue``).  Workers return raw, unfinalized
state: a reduce worker returns its post-filter head values in stream
order, a nest worker its element lists by group key and the first-seen
group columns aligned with them.  The
coordinator concatenates partitions in order and replays the exact serial
fold, so results — including float rounding, group first-seen order, and
error order — are bit-identical to serial execution.  *Hash* partitioning
(the re-shuffle-skipping path below) reorders the stream deterministically
but not serially, so it is only chosen when every affected monoid is
order-insensitive (set/bag/max/min).

**Partition-aware joins and nests.**  When a spine join carries an
equi-key over the driving scan's variable and the build side is a plain
Scan/Select/Map chain keyed on its own scan, both scans are
hash-partitioned on the key (:func:`stable_hash` over identity keys, so
co-location is independent of ``PYTHONHASHSEED``): each worker's hash
join builds only its own 1/P of the build side instead of broadcasting —
"the re-shuffle is already done by the scan".  Likewise a nest that
groups by the driving scan variable has partition-local groups (equal
keys hash to the same partition), so workers finalize their own groups
and the coordinator concatenates instead of merging by key.

**Quantifier roots stay serial.**  ``some``/``all`` short-circuit: a
speculative partition would evaluate rows (and charge budgets for rows) a
short-circuiting serial run never reaches, making error and governor
behavior racy.  :func:`try_parallel_plan` returns None for them.

**Threads, not processes.**  Physical plans hold compiled kernels and
rows hold OID-stamped records — neither pickles — so workers are always
threads.  On free-threaded builds they scale across cores; on GIL builds
the machinery is exercised (and correct) but CPU-bound speedup waits on
the interpreter.  Every worker runs in the coordinator's one
:class:`~repro.engine.physical.Execution`, which its kernels are called
with: the workers share its parameters, its ``kept`` count and its
governor, whose locked settle path makes it safe to share
(:meth:`~repro.engine.governor.Governor.enable_sharing`).
"""

from __future__ import annotations

import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import chain
from typing import Any, Sequence

from repro.algebra.operators import (
    Join,
    Map,
    Nest,
    Operator,
    OuterJoin,
    OuterUnnest,
    Reduce,
    Scan,
    Select,
    Unnest,
)
from repro.calculus.terms import Proj, Term, Var, free_vars
from repro.data.values import (
    BagValue,
    ListValue,
    NullValue,
    Record,
    SetValue,
    identity_key,
)
from repro.engine.physical import (
    Execution,
    MaterializedInput,
    PhysicalOperator,
    PMaterializedSource,
    PScan,
    _Context,
)
from repro.errors import GovernorError

__all__ = [
    "MAX_AUTO_WORKERS",
    "PGather",
    "PPartitionScan",
    "PartitionSpec",
    "PartitionedScan",
    "resolve_workers",
    "stable_hash",
    "try_parallel_plan",
]

#: Cap for ``num_workers=0`` (auto): enough to cover small hosts without
#: flooding a large one with partitions no query is wide enough to feed.
MAX_AUTO_WORKERS = 8

#: Monoids whose merge is exact under reordering: value-equality for the
#: commutative collections, and max/min/or/and are order-insensitive even
#: for floats.  sum/prod/avg are *mathematically* commutative but float
#: rounding is not reassociation-safe, and list concatenation is not
#: commutative at all — those require stream-order (range) partitioning.
_REORDER_SAFE = frozenset(("set", "bag", "max", "min", "some", "all"))


def resolve_workers(num_workers: int) -> int:
    """The worker/partition count for a requested ``num_workers``.

    0 means auto: one worker per visible core, capped at
    :data:`MAX_AUTO_WORKERS`.
    """
    if num_workers > 0:
        return num_workers
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(MAX_AUTO_WORKERS, cores))


# ---------------------------------------------------------------------------
# Seed-independent hashing of identity keys
# ---------------------------------------------------------------------------


def _num_repr(value: Any) -> str:
    # Values that compare equal must repr equal: True == 1 == 1.0, so all
    # numerics canonicalize through float where exact.  An int too large
    # for float can only equal another int with the same repr.
    try:
        as_float = float(value)
    except OverflowError:
        return f"num:{value!r}"
    if as_float == value:
        return f"num:{as_float!r}"
    return f"num:{value!r}"


def _stable_repr(key: Any) -> str:
    """A canonical string for an identity key: equal keys produce equal
    strings regardless of ``PYTHONHASHSEED`` (frozenset contents sorted)."""
    if isinstance(key, bool) or isinstance(key, (int, float)):
        return _num_repr(key)
    if isinstance(key, str):
        return f"str:{key!r}"
    if isinstance(key, NullValue):
        return "null"
    if isinstance(key, tuple):
        return "(" + ",".join(_stable_repr(part) for part in key) + ")"
    if isinstance(key, frozenset):
        return "fs{" + ",".join(sorted(_stable_repr(v) for v in key)) + "}"
    if isinstance(key, Record):
        inner = ",".join(
            f"{name}={_stable_repr(value)}" for name, value in sorted(key.items())
        )
        return "<" + inner + ">"
    if isinstance(key, SetValue):
        return "set{" + ",".join(
            sorted(_stable_repr(v) for v in key.elements())
        ) + "}"
    if isinstance(key, BagValue):
        parts = sorted(
            f"{_stable_repr(v)}*{count}"
            for v, count in key._value_counts().items()
        )
        return "bag{" + ",".join(parts) + "}"
    if isinstance(key, ListValue):
        return "list[" + ",".join(_stable_repr(v) for v in key) + "]"
    return f"{type(key).__name__}:{key!r}"  # pragma: no cover - defensive


def stable_hash(value: Any) -> int:
    """A process-independent hash of a join/partition key value.

    Built on :func:`identity_key` (so two values that would equi-join hash
    alike, and distinct stored objects hash apart) and a canonical repr
    (so the result does not depend on ``PYTHONHASHSEED``).
    """
    return zlib.crc32(_stable_repr(identity_key(value)).encode("utf-8"))


# ---------------------------------------------------------------------------
# Partitioned scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionSpec:
    """Which slice of an extent a partitioned scan emits.

    ``mode`` is ``"range"`` (contiguous slice ``index`` of ``count`` — the
    exact-replay default) or ``"hash"`` (rows whose ``key`` expression
    :func:`stable_hash`-es to ``index`` mod ``count`` — the
    re-shuffle-skipping mode for partition-aware joins/nests).
    """

    mode: str
    index: int
    count: int
    key: Term | None = None


@dataclass(frozen=True)
class PartitionedScan(Scan):
    """A logical extent scan restricted to one partition.

    Injected by :func:`try_parallel_plan` into each worker's copy of the
    plan; never produced by the optimizer, so no rewrite rule sees it.
    The planner dispatches on the ``partition`` field.
    """

    partition: PartitionSpec | None = None


class PPartitionScan(PScan):
    """Physical partitioned scan: one partition's rows of an extent.

    Ticks the governor only for *emitted* rows, so across all partitions
    the driving extent charges exactly what a serial scan charges.  A row's
    occurrence is its position in the whole extent, as in a serial scan.
    """

    def __init__(
        self, context: _Context, extent: str, var: str, spec: PartitionSpec
    ):
        super().__init__(context, extent, var)
        self.spec = spec
        self._key_kernel = (
            None if spec.key is None else self._kernel(context, spec.key)
        )

    def _items(self, ex: Execution) -> tuple[list, Sequence[int]]:
        items, _ = super()._items(ex)
        spec = self.spec
        if spec.mode == "range":
            n = len(items)
            lo = (n * spec.index) // spec.count
            hi = (n * (spec.index + 1)) // spec.count
            return items[lo:hi], range(lo, hi)
        if not items:
            return items, ()
        keys, _, err = self._run_kernel(
            ex, self._key_kernel, {self.var: items}, len(items)
        )
        if err is not None:
            raise err
        index, count = spec.index, spec.count
        picked = [
            i for i, key in enumerate(keys) if stable_hash(key) % count == index
        ]
        return [items[i] for i in picked], picked

    def describe(self) -> str:
        spec = self.spec
        return (
            f"PartitionScan({self.var} <- {self.extent} "
            f"[{spec.mode} {spec.index + 1}/{spec.count}])"
        )


# ---------------------------------------------------------------------------
# Plan decomposition
# ---------------------------------------------------------------------------

#: Spine operators and how the driving stream flows through them.
_CHILD_SPINE = (Select, Map, Unnest, OuterUnnest, Nest)


def _spine(plan: Operator) -> list[Operator] | None:
    """The driving spine from *plan* down to its extent scan, or None.

    Follows ``child`` through streaming operators and ``left`` through
    joins (the probe side drives).  A plan whose driving leaf is not a
    plain Scan (Seed-rooted constants, for example) is not partitionable.
    """
    path: list[Operator] = []
    node = plan
    while True:
        path.append(node)
        if isinstance(node, _CHILD_SPINE):
            node = node.child
        elif isinstance(node, (Join, OuterJoin)):
            node = node.left
        elif type(node) is Scan:
            return path
        else:
            return None


def _is_path_expr(term: Term) -> bool:
    """True for bare variables and projection chains — total functions
    (modulo NULL), safe to evaluate on rows a downstream filter would have
    dropped (hash partitioning evaluates the key at the scan)."""
    while isinstance(term, Proj):
        term = term.expr
    return isinstance(term, Var)


def _build_side_scan(node: Operator) -> Scan | None:
    """The scan under a join's build side, if the side is a plain
    Scan/Select/Map chain (partitioning its scan then commutes with the
    chain).  Anything else — nested joins, unnests — stays broadcast."""
    while isinstance(node, (Select, Map)):
        node = node.child
    return node if type(node) is Scan else None


def _choose_hash_partition(
    monoid, path: list[Operator], scan: Scan
) -> tuple[Term, Scan, Term] | None:
    """The (left key, build-side scan, right key) for hash partitioning,
    or None when range partitioning must be used.

    Hash mode reorders the stream (deterministically), so every monoid
    whose fold observes element order must be reorder-safe: the root
    reduce monoid, and each spine nest's monoid unless that nest groups
    by the scan variable (then groups are partition-local and fold their
    own rows in stream order regardless of partitioning).
    """
    if monoid.name not in ("set", "bag", "max", "min"):
        return None
    for op in path:
        if isinstance(op, Nest) and scan.var not in op.group_by:
            if op.monoid_name not in _REORDER_SAFE:
                return None
    from repro.engine.planner import split_equi_conjuncts

    scan_var = frozenset((scan.var,))
    for op in reversed(path):  # leaf-side joins first: they gain the most
        if not isinstance(op, (Join, OuterJoin)):
            continue
        keys, _ = split_equi_conjuncts(
            op.pred, op.left.columns(), op.right.columns()
        )
        for left_key, right_key in keys:
            if not (free_vars(left_key) == scan_var and _is_path_expr(left_key)):
                continue
            build_scan = _build_side_scan(op.right)
            if build_scan is None:
                continue
            if free_vars(right_key) == frozenset(
                (build_scan.var,)
            ) and _is_path_expr(right_key):
                return left_key, build_scan, right_key
    return None


def _substitute(node: Operator, mapping: dict[int, Operator]) -> Operator:
    """Rebuild *node* with the (identity-keyed) leaves in *mapping*
    swapped in.  Only containers on the way to a mapped leaf change."""
    found = mapping.get(id(node))
    if found is not None:
        return found
    if isinstance(node, (Join, OuterJoin)):
        return replace(
            node,
            left=_substitute(node.left, mapping),
            right=_substitute(node.right, mapping),
        )
    child = getattr(node, "child", None)
    if child is not None:
        return replace(node, child=_substitute(child, mapping))
    return node


def try_parallel_plan(
    plan: Operator, context: _Context, options
) -> "PGather | None":
    """Decompose *plan* into a :class:`PGather` of partition pipelines.

    Returns None — execute serially — when the plan shape does not
    partition: non-Reduce roots, quantifier (some/all) roots, Seed-driven
    plans, or a nest spine interrupted by joins/unnests above the lowest
    nest (the merge would need to re-derive join state).
    """
    from repro.engine.planner import _build

    if not isinstance(plan, Reduce):
        return None
    monoid = plan.monoid
    if monoid.name in ("some", "all"):
        return None
    path = _spine(plan.child)
    if path is None:
        return None
    scan = path[-1]
    assert type(scan) is Scan

    nest_index = None
    for i in range(len(path) - 1, -1, -1):
        if isinstance(path[i], Nest):
            nest_index = i
            break
    if nest_index is not None:
        # The tail (everything between the root and the lowest nest) is
        # re-run serially over the merged groups; only stream-shaped
        # operators replay that way.
        for op in path[:nest_index]:
            if not isinstance(op, (Select, Map, Nest)):
                return None

    count = resolve_workers(getattr(options, "num_workers", 0))

    hash_choice = _choose_hash_partition(monoid, path, scan)
    if hash_choice is not None:
        left_key, build_scan, right_key = hash_choice
        mode = "hash"
    else:
        left_key = build_scan = right_key = None
        mode = "range"

    if nest_index is None:
        strategy = "reduce"
        worker_template: Operator = plan
        nest_node = None
        aligned = False
    else:
        strategy = "nest"
        nest_node = path[nest_index]
        worker_template = nest_node
        # Groups keyed (in part) by the scan object never span partitions
        # under hash mode: equal group keys imply equal scan objects imply
        # the same hash bucket.  Workers then finalize their own groups
        # and the coordinator concatenates — the partition-aware nest.
        aligned = mode == "hash" and scan.var in nest_node.group_by

    partition_roots: list[PhysicalOperator] = []
    for index in range(count):
        mapping: dict[int, Operator] = {
            id(scan): PartitionedScan(
                scan.extent,
                scan.var,
                PartitionSpec(mode, index, count, left_key),
            )
        }
        if build_scan is not None:
            mapping[id(build_scan)] = PartitionedScan(
                build_scan.extent,
                build_scan.var,
                PartitionSpec("hash", index, count, right_key),
            )
        worker_logical = _substitute(worker_template, mapping)
        partition_roots.append(_build(worker_logical, context, options))

    tail_root = None
    tail_source = None
    if strategy == "nest":
        tail_source = PMaterializedSource(context, nest_node.columns())
        tail_logical: Operator = MaterializedInput(
            tail_source, nest_node.columns()
        )
        for op in reversed(path[:nest_index]):
            tail_logical = replace(op, child=tail_logical)
        tail_logical = replace(plan, child=tail_logical)
        tail_root = _build(tail_logical, context, options)

    return PGather(
        context,
        strategy=strategy,
        mode=mode,
        aligned=aligned,
        monoid=monoid,
        nest_node=nest_node,
        partition_roots=partition_roots,
        tail_root=tail_root,
        tail_source=tail_source,
        num_workers=count,
    )


# ---------------------------------------------------------------------------
# The gather root
# ---------------------------------------------------------------------------


class PGather(PhysicalOperator):
    """Coordinator of a parallel execution: runs the partition pipelines
    in a thread pool, then merges in partition order.

    ``strategy="reduce"``: each worker returns its partition's post-filter
    head values (stream order); the coordinator folds the concatenation
    with the partition root's own fold.  ``strategy="nest"``: each worker
    returns its groups' head lists; the coordinator extends them by key in
    partition order (or concatenates folded groups when partition-aligned),
    folds each as the root would, and streams the merged group rows through
    the serial tail.
    """

    def __init__(
        self,
        context: _Context,
        *,
        strategy: str,
        mode: str,
        aligned: bool,
        monoid,
        nest_node,
        partition_roots: list[PhysicalOperator],
        tail_root: PhysicalOperator | None,
        tail_source: PMaterializedSource | None,
        num_workers: int,
    ):
        super().__init__(context)
        self.strategy = strategy
        self.mode = mode
        self.aligned = aligned
        self.monoid = monoid
        self._nest_node = nest_node
        self._partition_roots = partition_roots
        self._tail_root = tail_root
        self._tail_source = tail_source
        self.num_workers = num_workers

    # -- plan surface --------------------------------------------------------

    def children(self) -> tuple[PhysicalOperator, ...]:
        # One representative partition pipeline (they are isomorphic), plus
        # the serial tail for the nest strategy.
        representative = (self._partition_roots[0],)
        if self._tail_root is not None:
            return (self._tail_root,) + representative
        return representative

    def describe(self) -> str:
        return (
            f"Gather({self.strategy}/{self.mode}"
            f"{', aligned' if self.aligned else ''}, "
            f"partitions={len(self._partition_roots)}, "
            f"workers={self.num_workers})"
        )

    # -- execution -----------------------------------------------------------

    def _run_partition(self, ex: Execution, index: int) -> Any:
        root = self._partition_roots[index]
        if self.strategy == "reduce":
            return root.partial_value(ex)
        if self.aligned:
            return root._groups(ex)
        return root.accumulate(ex)

    def value(self, ex: Execution | None = None) -> Any:
        ex = Execution(self) if ex is None else ex
        governor = ex.governor
        if governor is not None:
            governor.enable_sharing()
        count = len(self._partition_roots)
        partials: list[Any] = [None] * count
        errors: list[BaseException | None] = [None] * count
        with ThreadPoolExecutor(
            max_workers=self.num_workers, thread_name_prefix="repro-exchange"
        ) as pool:
            futures = [
                pool.submit(self._run_partition, ex, index)
                for index in range(count)
            ]
            for index, future in enumerate(futures):
                try:
                    partials[index] = future.result()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors[index] = exc
        # The pool context manager has drained every worker here.  Error
        # priority: a governor trip always surfaces (whether *this* worker
        # or a sibling crossed the shared budget is scheduling-dependent,
        # but *whether the query trips* is not — total work is fixed), then
        # the first partition's error, which under range partitioning is
        # the error a serial run would have reached first.
        for exc in errors:
            if isinstance(exc, GovernorError):
                raise exc
        for exc in errors:
            if exc is not None:
                raise exc
        if self.strategy == "reduce":
            return ex.account(self, self._merge_reduce(partials))
        return ex.account(self, self._merge_nest(ex, partials))

    def _merge_reduce(self, partials: list[list]) -> Any:
        # The serial fold replayed over the partition-order concatenation,
        # so arithmetic matches serial execution bit for bit under range
        # partitioning.
        return self._partition_roots[0]._fold(list(chain.from_iterable(partials)))

    def _merge_nest(self, ex: Execution, partials: list) -> Any:
        nest = self._nest_node
        columns: dict[str, list] = {
            col: [] for col in self._partition_roots[0].carried
        }
        if self.aligned:
            # Workers returned their finalized group columns and no group
            # spans partitions: concatenate in partition order.
            columns[nest.out_var] = []
            count = 0
            for part_columns, part_count in partials:
                for col, values in columns.items():
                    values.extend(part_columns[col])
                count += part_count
        else:
            # Workers returned ``(groups, key_cols)``: element lists by key
            # and the grouping columns aligned with them, both first-seen.
            merged: dict[Any, list] = {}
            for part_groups, part_keys in partials:
                for pos, (key, elements) in enumerate(part_groups.items()):
                    if key not in merged:
                        merged[key] = elements
                        for col, values in columns.items():
                            values.append(part_keys[col][pos])
                    elif merged[key]:
                        merged[key].extend(elements)
                    else:  # no heads yet: the empty tuple
                        merged[key] = elements
            fold = self._partition_roots[0]._fold
            columns[nest.out_var] = [fold(e) for e in merged.values()]
            count = len(merged)
        self._tail_source.feed(ex, columns, count)
        return self._tail_root.value(ex)
