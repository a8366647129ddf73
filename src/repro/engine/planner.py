"""Physical planner: logical algebra → executable physical plans.

The planner performs the access-path / algorithm assignment step of the
paper's Section 6 optimizer ("126 lines for translating algebraic forms into
physical plans"):

* every (outer-)join becomes a :class:`~repro.engine.physical.PHashJoin`
  keyed on its predicate's equi-conjuncts — ``f(left-vars) =
  g(right-vars)`` — with the remaining conjuncts as a residual predicate;
  a predicate with none gives a keyless one, the **nested-loop** join.
  This is precisely the optimization the paper's QUERY E discussion
  motivates ("the resulting outer-joins would both be assigned equality
  predicates, thus making them more efficient").
* nests become single-pass hash grouping — except the shape the unnesting
  algorithm emits for every nested box over an extent, ``Γ ∘ =⋈``: a nest
  that groups a left outer-join by exactly the join's left columns, with a
  head and predicate over the right columns only.  Nest and join become one
  **group-join** (:class:`~repro.engine.physical.PGroupJoin`) on the same
  keys and residual, so no joined pair is built only to be grouped back
  onto the left row it came from: a map over the left stream;
* a nest over an outer-unnest of its own rows (``Γ ∘ =μ``, a nested box
  over a path) is re-folded into the calculus term ``⊕{ h | x <- path, x
  is not NULL, q, p }`` — a **group-unnest**: a
  :class:`~repro.engine.physical.PMap` binding the nest's variable to that
  fold, one generator expression per row, no child row and no group;
* a nest that is neither but whose groups are still the rows of a
  descendant ``L`` — reached through nests, selections, outer-unnests and
  the left side of at least one outer-join — and whose spine reads of
  ``L`` only proper expressions becomes a **shared nest**
  (:class:`~repro.engine.physical.PSharedNest`): the spine is planned as
  it stands over a stand-in leaf and run over one representative row per
  distinct binding of those expressions — the duplicate-free domain of
  magic decorrelation, ours rather than the paper's;
* an equality selection of a scan on a closed key and an indexed attribute
  becomes an **index scan**: one seed row hash-joined to the scan's build;
* other selections, maps, unnests, reduces map one-to-one.  Parallel plans fuse
  none of the three nests above: the exchange merges plain ``PHashNest``s.

The planner reads the plan's one Figure 6 typing
(:func:`~repro.algebra.typing.type_plan`).  Its grouped variables over a
bag or list (by extent kind or path type) have their scans and unnests emit
an occurrence column, joins carry it, nests group by it; on SQLite the same
set keys the SQL's groups too.  Its column types decide which keys every
hash table files bare.  Set-only plans are planned exactly as they were.

``PlannerOptions.hash_joins`` turns key extraction off, which the benchmark
suite uses to separate "unnesting removes recomputation" from "unnesting
enables hash joins": every join and group-join then runs keyless, one
bucket with the whole predicate as its residual.

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
from repro.algebra.typing import PlanTypeChecker, type_plan
from repro.calculus.evaluator import ExtentProvider
from repro.calculus.terms import (
    TRUE, BinOp, Comprehension, Const, Filter, Generator, IsNull, Not,
    Proj, Singleton, Term, Var, conj, conjuncts, free_vars, param_names, substitute,
)
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
    occurring: PlanTypeChecker | None = None,
) -> PhysicalOperator:
    """Translate a logical plan into a physical plan bound to *database*.

    *params* supplies values for any :class:`~repro.calculus.terms.Param`
    placeholders in the plan's expressions (prepared-statement execution).
    *profile* makes operators time their expression evaluation (EXPLAIN
    ANALYZE).  *compiler* reuses a caller-owned :class:`ExprCompiler` so its
    memoized kernels survive across executions (the plan cache passes the
    one stored on ``CompiledQuery``).  *governor* is an optional
    :class:`repro.engine.governor.Governor` ticked from every operator loop
    of this execution.  *occurring* is the plan's typing
    (:func:`~repro.algebra.typing.type_plan`), found before the SQL lowering
    replaced subtrees (None: of *plan* itself).
    """
    options = options or PlannerOptions()
    if occurring is None:
        occurring = type_plan(plan, database)
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
        typing=occurring,
    )
    return _build(plan, context, options)


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
            indexed = _try_index_scan(plan, plan.child, context, options)
            if indexed is not None:
                return indexed
        return PSelect(context, _build(plan.child, context, options), plan.pred)
    if isinstance(plan, Map):
        return PMap(context, _build(plan.child, context, options), plan.bindings)
    if isinstance(plan, (Join, OuterJoin)):
        return _build_join(plan, context, options)
    if isinstance(plan, (Unnest, OuterUnnest)):
        child = _build(plan.child, context, options)
        outer = isinstance(plan, OuterUnnest)
        return PUnnest(context, child, plan.path, plan.var, plan.pred, outer=outer)
    if isinstance(plan, Nest):
        if not options.parallel:  # the exchange merges plain nests only
            for fuse in (_try_group_join, _try_group_unnest, _try_shared_nest):
                fused = fuse(plan, context, options)
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
        context.typing.bare(map(Var, nest.group_by)),
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
    select: Select, scan: Scan, context: _Context, options: PlannerOptions
) -> PhysicalOperator | None:
    """Convert ``σ_{v.attr = key}(Scan X)``, *key* closed, into an index
    scan when the database declares an index on ``X.attr``: a probe of the
    kept build of ``Scan X`` on ``v.attr``.  Remaining conjuncts stay as a
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
                continue  # the key must be a closed expression
            if not (
                isinstance(attr_side, Proj)
                and attr_side.expr == Var(scan.var)
                and database.has_index(scan.extent, attr_side.attr)
            ):
                continue
            # The seed probes the scan: a hash join's facts and reuse key.
            probe = Join(Seed(), scan, part)
            bare, closed = _build_facts(probe, [(key_side, attr_side)], context, ())
            right = PScan(context, scan.extent, scan.var)
            reuse_key = _reuse_key(closed, right, context, options, "hash")
            access: PhysicalOperator = PIndexScan(
                context, right, attr_side.attr, key_side, bare, reuse_key
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
    predicate — no keys, all of it, for the nested-loop join."""
    if options.hash_joins:
        keys, residual = split_equi_conjuncts(
            plan.pred, plan.left.columns(), plan.right.columns()
        )
        if keys:
            return keys, conj(*residual)
    return [], plan.pred


def closed_build(right: Operator, terms: tuple[Term, ...]) -> str | None:
    """What the logical plan fixes of a closed build side's reuse key, or
    None when *right* — a hash join's or group-join's build input — is not
    closed.  It is closed when it is a ``Scan``, or a ``Select`` over one,
    and neither its selection nor the build's *terms* (the right keys, a
    group-join's head and predicate) holds a parameter or reads a variable
    other than the scan's.  Its hash table then depends on nothing but the
    extent, and the database keeps it (:mod:`repro.engine.reuse`)."""
    scan = right.child if type(right) is Select else right
    if type(scan) is not Scan:
        return None
    if scan is not right:
        terms = (right.pred, *terms)
    if any(free_vars(t) - {scan.var} or param_names(t) for t in terms):
        return None
    # Nothing of the query: each compile names the scan's variable afresh.
    # A repr, not the terms: Const(1) == Const(1.0) == Const(True).
    anonymous = {scan.var: Var("$")}
    return repr((scan.extent, tuple(substitute(t, anonymous) for t in terms)))


def _build_facts(
    join: Join | OuterJoin, keys: list, context: _Context, terms: tuple[Term, ...]
) -> tuple[tuple, str | None]:
    """``(bare, closed)`` for a hash table built over *join*'s right input
    on *keys*: the typing's ``bare`` of the left and the right keys, and
    :func:`closed_build` of the right input with the build's own *terms*.
    Derived once per compiled query and typing, beside the group-unnest
    folds, under the ids of the objects it derives from — the right input,
    the join predicate and the terms, which every execution passes again
    even where the nodes around them are rebuilt (a shared nest's spine);
    the entry keeps them alive, so an id cannot come back as another
    object."""
    derived, typing = context._compiler.derived, context.typing
    sources = (join.right, join.pred, *terms)
    slot = tuple(map(id, sources))
    hit = derived.get(slot)
    if hit is None or hit[1] is not typing or hit[2] != keys:
        lefts, rights = [k for k, _ in keys], [k for _, k in keys]
        bare = (typing.bare(lefts), typing.bare(rights))
        hit = (sources, typing, keys, bare, closed_build(join.right, (*rights, *terms)))
        derived[slot] = hit
    return hit[3], hit[4]


def _reuse_key(
    closed: str | None,
    right: PhysicalOperator,
    context: _Context,
    options: PlannerOptions,
    *own: Any,
) -> tuple | None:
    """A closed build's key in the database's memo: what the logical plan
    fixes, what the operator adds (*own*), the planned right subtree's
    operators — an index scan or not, an occurrence column or not — and
    the chunk size.  None for an open build, a database that keeps no
    builds and a parallel plan."""
    if closed is None or options.parallel:
        return None
    if getattr(context.database, "builds", None) is None:
        return None
    ops = [right]
    for op in ops:
        ops += op.children()
    shape = tuple(
        (type(op).__name__, getattr(op, "_occurrence", None) is not None) for op in ops
    )
    return (closed, *own, shape, context.batch_size)


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
    bare, closed = _build_facts(plan, keys, context, ())
    return PHashJoin(
        context,
        left,
        right,
        tuple(k for k, _ in keys),
        tuple(k for _, k in keys),
        residual,
        right_columns,
        outer,
        bare,
        _reuse_key(closed, right, context, options, "hash"),
    )


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
    left = _build(join.left, context, options)
    right = _build(join.right, context, options)
    right_columns = join.right.columns()
    bare, closed = _build_facts(join, keys, context, (nest.head, nest.pred))
    # The table's shape — folded buckets, or the columns (by position) a
    # residual reads of them — and the null filter, by position.
    plain = isinstance(residual, Const) and residual.value is True
    read = tuple(i for i, c in enumerate(right_columns) if c in free_vars(residual))
    nulls = tuple(map(right_columns.index, nest.null_vars))
    own = (nest.monoid.name, nulls, plain, read)
    return PGroupJoin(
        context,
        left,
        right,
        tuple(k for k, _ in keys),
        tuple(k for _, k in keys),
        residual,
        right_columns,
        nest.monoid,
        nest.head,
        nest.group_by,
        nest.null_vars,
        nest.out_var,
        nest.pred,
        bare,
        _reuse_key(closed, right, context, options, "group", *own),
    )


def group_unnest(nest: Nest, fold: bool = False) -> tuple | None:
    """``(L, None)`` for ``Γ^{⊕,h,p}_{by cols(L); null x} ∘ Map* ∘
    =μ^{q}_{x <- path}(L)`` (an inner nest of that shape may stand for a
    ``Map``), else None; with *fold*, ``(L, ⊕{ h | x <- path, x is not
    NULL, q, b <- {{e}}…, p })``: a binding or an inner fold is a singleton
    generator, so ``Γ ∘ Γ ∘ =μ ∘ =μ`` is one nested term.  Nothing in it
    reads a column ``L`` lacks: a nest drops the columns it folds."""
    if len(nest.null_vars) != 1:
        return None
    lets: list[Generator] = []
    node = nest.child
    while not (isinstance(node, OuterUnnest) and node.var == nest.null_vars[0]):
        inner = group_unnest(node, fold) if isinstance(node, Nest) else None
        if isinstance(node, Map):
            if fold:
                lets[:0] = [Generator(n, Singleton("bag", e)) for n, e in node.bindings]
            node = node.child
        elif inner is not None:
            if fold:
                lets.insert(0, Generator(node.out_var, Singleton("bag", inner[1])))
            node = inner[0]
        else:
            return None
    left, var = node.child, node.var
    if set(nest.group_by) != set(left.columns()):
        return None
    if not fold:
        return left, None
    q, p = ([Filter(f)] if f != TRUE else [] for f in (node.pred, nest.pred))
    quals = (Generator(var, node.path), Filter(Not(IsNull(Var(var)))), *q, *lets, *p)
    return left, Comprehension(nest.monoid_name, nest.head, quals)


def _try_group_unnest(
    nest: Nest, context: _Context, options: PlannerOptions
) -> PhysicalOperator | None:
    """:func:`group_unnest` as a ``PMap`` binding the nest's variable to
    the fold over ``L``.  The fold is derived once per compiled query (by
    the nest's variable, while it keeps its head and predicate), so every
    execution finds its kernel by identity."""
    found = group_unnest(nest)
    if found is None:
        return None
    derived = context._compiler.derived
    hit = derived.get(nest.out_var)
    if hit is None or hit[0] is not nest.head or hit[1] is not nest.pred:
        hit = (nest.head, nest.pred, group_unnest(nest, fold=True)[1])
        derived[nest.out_var] = hit
    return PMap(context, _build(found[0], context, options), ((nest.out_var, hit[2]),))


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
    real ``L`` columns, so no term is rewritten."""
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
