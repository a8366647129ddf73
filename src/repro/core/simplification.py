"""The post-unnesting simplification rule of Section 5 (Figure 8).

The unnesting algorithm compiles group-by style queries — such as

    select e.dno, avg(e.salary) from Employees e
    where e.age > 30 group by e.dno

whose calculus translation is *implicitly nested* — into a self outer-join
followed by a nest (Figure 8.A).  Section 5's simplification rule

    Γ^{⊕/e/b}_{p/w}( g(a) =⨝_{a.M = b.M} g(b) )  →  Γ^{⊕}( σ_p(g(a)) )

recognizes that the outer-join joins a subplan *with a renamed copy of
itself* on equality of grouping expressions, and replaces the pair with a
direct grouping of the single subplan (Figure 8.B).

Matching details (all checked, the rewrite refuses otherwise):

* Each join side must be a Select/Scan tower over the same extent; the
  unnester may leave the right side's own predicate inside the outer-join
  predicate (rule C6 does that), so right-only conjuncts of the join
  predicate count as right-side selections.  After splitting those off, the
  remaining join predicate must be a conjunction of equalities
  ``f_i(a) = f_i(b)`` with the two towers equal under the renaming a→b.
* The rewritten nest groups by the *values* of the ``f_i``, so the rewrite
  inserts a :class:`~repro.algebra.operators.Map` that materializes them as
  columns (the paper's Γ groups by an arbitrary function, which subsumes
  this).
* The parent may then mention the old left variables only *through* the
  ``f_i``; the rewrite substitutes the new key columns there.
* Collapsing per-tuple groups into per-key groups drops duplicate
  (key, aggregate) pairs, so the parent accumulator must be idempotent
  (it is ``set`` in every group-by query the rule targets).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.algebra.operators import (
    Map,
    Nest,
    Operator,
    OuterJoin,
    Reduce,
    Scan,
    Select,
    transform_plan,
)
from repro.calculus.terms import (
    BinOp,
    Term,
    Var,
    conjuncts,
    free_vars,
    fresh_name,
    substitute,
    transform,
)


def simplify(plan: Operator) -> Operator:
    """Apply the Section 5 simplification wherever it matches in *plan*."""
    return transform_plan(plan, _simplify_node)


def _simplify_node(plan: Operator) -> Operator:
    # The parent folds the whole stream: a reduce, or a nest into one group
    # (the set an ORDER BY of a grouped select ranges over).
    whole = isinstance(plan, Reduce) or isinstance(plan, Nest) and not plan.group_by
    if whole and plan.monoid.idempotent and isinstance(plan.child, Nest):
        rewritten = _try_rewrite(plan, plan.child)
        if rewritten is not None:
            return rewritten
    return plan


@dataclass(frozen=True)
class _Tower:
    """A Select*/Scan tower decomposed into its scan and predicate set."""

    scan: Scan
    preds: tuple[Term, ...]


def _decompose(plan: Operator) -> _Tower | None:
    preds: list[Term] = []
    while isinstance(plan, Select):
        preds.extend(conjuncts(plan.pred))
        plan = plan.child
    if isinstance(plan, Scan):
        return _Tower(plan, tuple(preds))
    return None


def _try_rewrite(parent: Reduce | Nest, nest: Nest) -> Operator | None:
    join = nest.child
    if not isinstance(join, OuterJoin):
        return None

    left = _decompose(join.left)
    right = _decompose(join.right)
    if left is None or right is None or left.scan.extent != right.scan.extent:
        return None

    # The nest must group by exactly the left side and null-test the right.
    if tuple(nest.group_by) != tuple(join.left.columns()):
        return None
    if not set(nest.null_vars) <= set(join.right.columns()):
        return None

    a_var, b_var = left.scan.var, right.scan.var
    rename_ab = {a_var: Var(b_var)}
    rename_ba = {b_var: Var(a_var)}

    # Split the join predicate: equalities f(a) = f(b) versus right-only
    # conjuncts (which count as right-side selections).
    equalities: list[Term] = []
    right_preds: list[Term] = list(right.preds)
    for part in conjuncts(join.pred):
        names = free_vars(part)
        if names <= {b_var}:
            right_preds.append(part)
            continue
        expr = _equality_of_copies(part, a_var, b_var, rename_ab)
        if expr is None:
            return None
        equalities.append(expr)
    if not equalities:
        return None

    # The towers must be copies of each other under the renaming.
    left_set = {substitute(p, rename_ab) for p in left.preds}
    if left_set != set(right_preds):
        return None

    # Head and contribution predicate of the nest range over the right copy.
    if not (free_vars(nest.head) <= {b_var} and free_vars(nest.pred) <= {b_var}):
        return None

    key_columns = tuple(fresh_name("k") for _ in equalities)
    bindings = tuple(zip(key_columns, equalities))

    # The parent may reference the left variable only via the f_i.
    replacements = {expr: Var(col) for col, expr in bindings}
    new_head = _replace_exprs(parent.head, replacements)
    new_pred = _replace_exprs(parent.pred, replacements)
    allowed = set(key_columns) | {nest.out_var}
    if not (free_vars(new_head) <= allowed and free_vars(new_pred) <= allowed):
        return None

    # Null-test the key columns: in the outer-join form a NULL grouping key
    # matches nothing (not even its own copy — NULL = NULL is false), so its
    # group is padded to the monoid zero.  The direct grouping must preserve
    # that, or NULL-keyed rows would wrongly aggregate with themselves.
    grouped = Nest(
        Map(join.left, bindings),
        nest.monoid_name,
        substitute(nest.head, rename_ba),
        group_by=key_columns,
        null_vars=key_columns,
        out_var=nest.out_var,
        pred=substitute(nest.pred, rename_ba),
    )
    return replace(parent, child=grouped, head=new_head, pred=new_pred)


def _equality_of_copies(
    part: Term, a_var: str, b_var: str, rename_ab: dict[str, Term]
) -> Term | None:
    """If *part* is ``f(a) = f(b)``, return ``f(a)``; otherwise None."""
    if not (isinstance(part, BinOp) and part.op == "=="):
        return None
    sides = [part.left, part.right]
    a_side = next((s for s in sides if free_vars(s) == {a_var}), None)
    b_side = next((s for s in sides if free_vars(s) == {b_var}), None)
    if a_side is None or b_side is None:
        return None
    if substitute(a_side, rename_ab) != b_side:
        return None
    return a_side


def _replace_exprs(term: Term, replacements: dict[Term, Term]) -> Term:
    """Replace occurrences of whole expressions (not just variables)."""
    return transform(term, lambda t: replacements.get(t, t))


def simplification_applies(plan: Operator) -> bool:
    """True when :func:`simplify` changes *plan* (used by reports/tests)."""
    return simplify(plan) != plan
