"""Physical planner: logical algebra → executable physical plans.

The planner performs the access-path / algorithm assignment step of the
paper's Section 6 optimizer ("126 lines for translating algebraic forms into
physical plans"):

* (outer-)joins whose predicate contains equi-conjuncts — ``f(left-vars) =
  g(right-vars)`` — become **hash joins** on those keys with the remaining
  conjuncts as a residual predicate; everything else falls back to nested
  loops.  This is precisely the optimization the paper's QUERY E discussion
  motivates ("the resulting outer-joins would both be assigned equality
  predicates, thus making them more efficient").
* nests become single-pass hash grouping — except the shape the unnesting
  algorithm emits for every nested box over an extent, ``Γ ∘ =⋈``: a nest
  that groups a left outer-join by exactly the join's left columns, with a
  head and predicate over the right columns only.  Nest and join become one
  **group-join** (:class:`~repro.engine.physical.PGroupJoin`) on the same
  keys and residual, so no joined pair is built only to be grouped back
  onto the left row it came from;
* a nest that is not that shape but whose groups are still the rows of a
  descendant ``L`` — reached through nests, selections, outer-unnests and
  the left side of at least one outer-join — and whose spine reads of
  ``L`` only proper expressions becomes a **shared nest**
  (:class:`~repro.engine.physical.PSharedNest`): the spine is planned as
  it stands over a stand-in leaf and run over one representative row per
  distinct binding of those expressions — the duplicate-free domain of
  magic decorrelation, ours rather than the paper's.  Parallel plans keep
  the plain spine (the exchange merges nests by ``accumulate``);
* selections, maps, unnests, reduces map one-to-one.

First, once per plan, :func:`occurring_vars` finds the grouped variables
over a bag or list (by extent kind or schema type): their scans and
unnests emit an occurrence column, joins carry it, nests group by it.  On
SQLite the same set, found before lowering, keys the SQL's groups too.
Set-only plans are planned exactly as they were.

``PlannerOptions.hash_joins`` turns key extraction off, which the benchmark
suite uses to separate "unnesting removes recomputation" from "unnesting
enables hash joins" (the group-join then runs keyless: one bucket, the whole
predicate as its residual).

A logical node that carries ``build_physical(context)`` — the stand-in
``MaterializedInput`` of the shared nest and the exchange's tail, the SQLite
backend's ``SqlSegment`` — is a leaf that builds itself; the planner plans
everything above it the same way whichever backend supplied the leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.algebra.operators import (
    Eval,
    Join,
    Map,
    Nest,
    Operator,
    OuterJoin,
    OuterUnnest,
    Reduce,
    Scan,
    Seed,
    Select,
    Unnest,
)
from repro.calculus.evaluator import ExtentProvider
from repro.calculus.terms import BinOp, Extent, Proj, Term, Var, conj, conjuncts, free_vars
from repro.calculus.typing import CalculusTypeError, TypeChecker
from repro.data.schema import ANY, Type
from repro.data.values import SetValue
from repro.engine.batch import DEFAULT_BATCH_SIZE
from repro.engine.compile import ExprCompiler
from repro.engine.physical import (
    MaterializedInput,
    PEval,
    PGroupJoin,
    PHashJoin,
    PIndexScan,
    PHashNest,
    PMap,
    PMaterializedSource,
    PNestedLoopJoin,
    PReduce,
    PScan,
    PSeed,
    PSelect,
    PSharedNest,
    PUnnest,
    PhysicalOperator,
    _Context,
    root_value,
)
from repro.errors import QueryError


@dataclass(frozen=True)
class PlannerOptions:
    """Knobs for physical planning (used by the ablation benchmarks)."""

    hash_joins: bool = True
    index_scans: bool = True
    #: Rows per chunk passed between operators.
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Partition the driving extent scan and run partition-local pipelines
    #: in a worker pool (repro.engine.exchange).  Plans whose shape does
    #: not partition fall back to serial execution transparently.
    parallel: bool = False
    #: Worker/partition count for parallel execution; 0 means one per
    #: visible core, capped (see repro.engine.exchange.resolve_workers).
    num_workers: int = 0


def plan_physical(
    plan: Operator,
    database: ExtentProvider,
    options: PlannerOptions | None = None,
    params: Mapping[str, Any] | None = None,
    profile: bool = False,
    compiler: "ExprCompiler | None" = None,
    governor: Any | None = None,
    occurring: frozenset[str] | None = None,
) -> PhysicalOperator:
    """Translate a logical plan into a physical plan bound to *database*.

    *params* supplies values for any :class:`~repro.calculus.terms.Param`
    placeholders in the plan's expressions (prepared-statement execution).
    *profile* makes operators time their expression evaluation (EXPLAIN
    ANALYZE).  *compiler* reuses a caller-owned :class:`ExprCompiler` so its
    memoized kernels survive across executions (the plan cache passes the
    one stored on ``CompiledQuery``).  *governor* is an optional
    :class:`repro.engine.governor.Governor` ticked from every operator loop
    of this execution.  *occurring* is :func:`occurring_vars` of the plan
    before the SQL lowering replaced subtrees (None: of *plan* itself).
    """
    options = options or PlannerOptions()
    if occurring is None:
        occurring = occurring_vars(plan, database)
    if options.parallel:
        # Imported lazily: exchange depends on this module's _build.
        from repro.engine.exchange import try_parallel_plan

        gathered = try_parallel_plan(
            plan,
            database,
            options,
            params=params,
            profile=profile,
            compiler=compiler,
            governor=governor,
            occurring=occurring,
        )
        if gathered is not None:
            return gathered
    context = _Context(
        database,
        params,
        profile=profile,
        compiler=compiler,
        governor=governor,
        batch_size=options.batch_size,
        occurring=occurring,
    )
    return _build(plan, context, options)


def occurring_vars(plan: Operator, database: Any) -> frozenset[str]:
    """The variables of the logical *plan* a nest groups by that range over
    a bag or a list: by a scan's extent kind in *database* (a
    :class:`~repro.data.database.Database`), by an unnest's path type (a
    path the schema cannot type counts).  Only those paths are typed."""
    grouped: set[str] = set()
    binders: dict[str, Scan | Unnest | OuterUnnest] = {}
    nodes = [plan]
    for node in nodes:
        nodes += node.children()
        if isinstance(node, Nest):
            grouped.update(node.group_by)
        elif isinstance(node, (Scan, Unnest, OuterUnnest)):
            binders[node.var] = node
    checker = TypeChecker(getattr(database, "schema", None))
    found: set[str] = set()
    for var in grouped:
        node = binders.get(var)
        if isinstance(node, Scan):
            try:
                if not isinstance(database.extent(node.extent), SetValue):
                    found.add(var)
            except QueryError:
                pass  # a scan that fails, when it runs
        elif node is not None:
            if getattr(_domain(var, binders, checker), "monoid_name", None) != "set":
                found.add(var)
    return frozenset(found)


def _domain(var: str, binders: Mapping[str, Operator], checker: TypeChecker) -> Type:
    """The type of the collection *var* ranges over (ANY where untyped)."""
    node = binders[var]
    term = Extent(node.extent) if isinstance(node, Scan) else node.path
    env = {
        v: getattr(_domain(v, binders, checker), "element", ANY)
        for v in free_vars(term)
        if v in binders
    }
    try:
        return checker.infer(term, env)
    except CalculusTypeError:
        return ANY


def execute(
    plan: Operator,
    database: ExtentProvider,
    options: PlannerOptions | None = None,
    params: Mapping[str, Any] | None = None,
):
    """Plan and run a logical plan, returning its value."""
    return root_value(plan_physical(plan, database, options, params))


def _build(
    plan: Operator, context: _Context, options: PlannerOptions
) -> PhysicalOperator:
    # Leaves that carry their own physical construction (they wrap
    # pre-built operators or SQL the planner cannot re-derive).
    build = getattr(plan, "build_physical", None)
    if build is not None:
        return build(context)
    if isinstance(plan, Seed):
        return PSeed()
    if isinstance(plan, Scan):
        partition = getattr(plan, "partition", None)
        if partition is not None:
            from repro.engine.exchange import PPartitionScan

            return PPartitionScan(context, plan.extent, plan.var, partition)
        return PScan(context, plan.extent, plan.var)
    if isinstance(plan, Select):
        # ``type is`` not isinstance: a PartitionedScan child must keep its
        # partition restriction, which an index scan would bypass.
        if options.index_scans and type(plan.child) is Scan:
            indexed = _try_index_scan(plan, plan.child, context)
            if indexed is not None:
                return indexed
        return PSelect(context, _build(plan.child, context, options), plan.pred)
    if isinstance(plan, Map):
        return PMap(context, _build(plan.child, context, options), plan.bindings)
    if isinstance(plan, (Join, OuterJoin)):
        return _build_join(plan, context, options)
    if isinstance(plan, Unnest):
        return PUnnest(
            context,
            _build(plan.child, context, options),
            plan.path,
            plan.var,
            plan.pred,
            outer=False,
        )
    if isinstance(plan, OuterUnnest):
        return PUnnest(
            context,
            _build(plan.child, context, options),
            plan.path,
            plan.var,
            plan.pred,
            outer=True,
        )
    if isinstance(plan, Nest):
        fused = _try_group_join(plan, context, options) or _try_shared_nest(
            plan, context, options
        )
        if fused is not None:
            return fused
        return _hash_nest(plan, plan.child, context, options)
    if isinstance(plan, Reduce):
        return PReduce(
            context, _build(plan.child, context, options), plan.monoid, plan.head, plan.pred
        )
    if isinstance(plan, Eval):
        return PEval(context, _build(plan.child, context, options), plan.expr)
    raise TypeError(f"cannot plan {type(plan).__name__}")


def _hash_nest(
    nest: Nest, child: Operator, context: _Context, options: PlannerOptions
) -> PHashNest:
    """*nest* as a hash nest over *child* (its own, or a stand-in for it)."""
    return PHashNest(
        context,
        _build(child, context, options),
        nest.monoid,
        nest.head,
        nest.group_by,
        nest.null_vars,
        nest.out_var,
        nest.pred,
    )


def split_equi_conjuncts(
    pred: Term, left_columns: tuple[str, ...], right_columns: tuple[str, ...]
) -> tuple[list[tuple[Term, Term]], list[Term]]:
    """Split a join predicate into (left-key, right-key) pairs + residual.

    A conjunct qualifies when it is an equality with one side over the left
    columns only and the other over the right columns only.
    """
    left_set, right_set = set(left_columns), set(right_columns)
    keys: list[tuple[Term, Term]] = []
    residual: list[Term] = []
    for part in conjuncts(pred):
        if isinstance(part, BinOp) and part.op == "==":
            sides = (part.left, part.right)
            for a, b in (sides, sides[::-1]):
                a_vars, b_vars = free_vars(a), free_vars(b)
                if a_vars and b_vars and a_vars <= left_set and b_vars <= right_set:
                    keys.append((a, b))
                    break
            else:
                residual.append(part)
        else:
            residual.append(part)
    return keys, residual


def _try_index_scan(
    select: Select, scan: Scan, context: _Context
) -> PhysicalOperator | None:
    """Convert ``σ_{v.attr = const}(Scan X)`` into an index scan when the
    database has an index on ``X.attr``.  Remaining conjuncts stay as a
    residual selection."""
    database = context.database
    if not hasattr(database, "has_index"):
        return None
    parts = conjuncts(select.pred)
    for index, part in enumerate(parts):
        if not (isinstance(part, BinOp) and part.op == "=="):
            continue
        for attr_side, key_side in ((part.left, part.right), (part.right, part.left)):
            if free_vars(key_side):
                continue  # the key must be a constant expression
            if not (
                isinstance(attr_side, Proj)
                and attr_side.expr == Var(scan.var)
                and database.has_index(scan.extent, attr_side.attr)
            ):
                continue
            access: PhysicalOperator = PIndexScan(
                context, scan.extent, scan.var, attr_side.attr, key_side
            )
            residual = parts[:index] + parts[index + 1 :]
            if residual:
                return PSelect(context, access, conj(*residual))
            return access
    return None


def _join_keys(
    plan: Join | OuterJoin, options: PlannerOptions
) -> tuple[list[tuple[Term, Term]], Term]:
    """The equi-keys *plan*'s join hashes on and what is left of the
    predicate — no keys, all of it, for a nested-loop join."""
    if options.hash_joins:
        keys, residual = split_equi_conjuncts(
            plan.pred, plan.left.columns(), plan.right.columns()
        )
        if keys:
            return keys, conj(*residual)
    return [], plan.pred


def _build_join(
    plan: Join | OuterJoin, context: _Context, options: PlannerOptions
) -> PhysicalOperator:
    outer = isinstance(plan, OuterJoin)
    left = _build(plan.left, context, options)
    right = _build(plan.right, context, options)
    right_columns = plan.right.columns()
    if context.occurrences:
        right_columns += tuple(filter(None, map(context.occurrences.get, right_columns)))
    keys, residual = _join_keys(plan, options)
    if keys:
        return PHashJoin(
            context,
            left,
            right,
            tuple(k for k, _ in keys),
            tuple(k for _, k in keys),
            residual,
            right_columns,
            outer,
        )
    return PNestedLoopJoin(context, left, right, residual, right_columns, outer)


def group_join_shape(nest: Nest) -> OuterJoin | None:
    """The outer-join under a ``Γ ∘ =⋈`` pair, or None: *nest* groups it by
    exactly its left columns, reads right columns only in its head and
    predicate, and drops the outer pad through a right-column null
    variable.  The one statement of the condition: the group-join here and
    the SQL lowering's pre-aggregation (:mod:`repro.backends.shred`) both
    fold the right side per left row on the strength of it."""
    join = nest.child
    if not isinstance(join, OuterJoin):
        return None
    right_set = set(join.right.columns())
    if (
        set(nest.group_by) == set(join.left.columns())
        and nest.null_vars
        and right_set.issuperset(nest.null_vars)
        and free_vars(nest.head) | free_vars(nest.pred) <= right_set
    ):
        return join
    return None


def _try_group_join(
    nest: Nest, context: _Context, options: PlannerOptions
) -> PhysicalOperator | None:
    """``Γ ∘ =⋈`` as one operator (:func:`group_join_shape`): each left
    row's matches are folded without the join materialising them."""
    join = group_join_shape(nest)
    if join is None:
        return None
    keys, residual = _join_keys(join, options)
    return PGroupJoin(
        context,
        _build(join.left, context, options),
        _build(join.right, context, options),
        tuple(k for k, _ in keys),
        tuple(k for _, k in keys),
        residual,
        join.right.columns(),
        nest.monoid,
        nest.head,
        nest.group_by,
        nest.null_vars,
        nest.out_var,
        nest.pred,
    )


def _outer_reads(term: Term, outer: frozenset[str], found: list[Term]) -> bool:
    """Collect in *found* the maximal subterms of *term* that read the
    *outer* columns and nothing else.  False when one is a bare column: the
    term then depends on the row itself, not on a value rows can share."""
    free = free_vars(term)
    if not free & outer:
        return True
    if free <= outer:
        if isinstance(term, Var):
            return False
        if term not in found:
            found.append(term)
        return True
    return all(_outer_reads(child, outer, found) for child in term.children())


def shared_spine(nest: Nest) -> tuple[list[Operator], tuple[Term, ...]] | None:
    """The spine from *nest*'s child down to the descendant ``L`` whose
    columns *nest* groups by, with the expressions the spine reads of
    ``L`` — or None when the nest does not qualify for sharing.

    ``L`` must be reached through nests, selections, outer-unnests and the
    left side of outer-joins only: none of them drops a left row for want
    of a partner, and every nest on the way keeps the ``L`` columns in its
    own grouping, so each ``L`` row comes out of *nest* as one group (or as
    none, behind a selection).  At least one outer-join must lie between —
    a right input never reads ``L``, so there is work that does not depend
    on the row — and everything the spine does read of ``L`` must be a
    proper expression, never a bare column or a null test of one.  Shared
    with the SQL lowering, which runs the same spine over a binding domain.
    """
    if not nest.group_by:
        return None
    outer = frozenset(nest.group_by)
    spine: list[Operator] = []
    terms: list[Term] = [nest.head, nest.pred]
    null_vars = set(nest.null_vars)
    joins = 0
    node = nest.child
    while set(node.columns()) != outer:
        spine.append(node)
        if isinstance(node, Nest):
            terms += (node.head, node.pred)
            null_vars.update(node.null_vars)
            node = node.child
        elif isinstance(node, Select):
            terms.append(node.pred)
            node = node.child
        elif isinstance(node, OuterUnnest):
            terms += (node.path, node.pred)
            node = node.child
        elif isinstance(node, OuterJoin):
            terms.append(node.pred)
            joins += 1
            node = node.left
        else:
            return None
    if not joins or null_vars & outer:
        return None
    bindings: list[Term] = []
    if not all(_outer_reads(term, outer, bindings) for term in terms):
        return None
    return spine + [node], tuple(bindings)


def _try_shared_nest(
    nest: Nest, context: _Context, options: PlannerOptions
) -> PhysicalOperator | None:
    """Correlation-domain sharing: a nest whose groups are the rows of a
    descendant ``L`` and whose spine reads of ``L`` only expressions runs
    that spine once per distinct binding of them
    (:class:`~repro.engine.physical.PSharedNest`).  The spine is planned as
    it stands over a stand-in leaf for ``L`` — a representative row carries
    real ``L`` columns, so no term is rewritten.  Parallel plans keep the
    plain spine: the exchange's partition roots are nests it merges by
    ``accumulate``."""
    if options.parallel:
        return None
    found = shared_spine(nest)
    if found is None:
        return None
    (*spine, left), bindings = found
    source = PMaterializedSource(context, left.columns())
    child: Operator = MaterializedInput(source, left.columns())
    for node in reversed(spine):
        if isinstance(node, OuterJoin):
            child = replace(node, left=child)
        else:
            child = replace(node, child=child)
    return PSharedNest(
        context,
        _build(left, context, options),
        source,
        _hash_nest(nest, child, context, options),
        bindings,
    )
