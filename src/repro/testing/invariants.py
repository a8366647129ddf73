"""Per-sample pipeline invariants, checked on every fuzzed query.

The differential oracle compares *results*; these checkers look inside the
pipeline and verify structural properties that must hold for every query,
whatever its result:

* **type preservation** — the static type of the calculus term is unchanged
  by normalization, and the unnested plan's type matches it (Theorem 1's
  typing judgement is stable across Figure 4 and Figure 7);
* **normal form** — after :func:`repro.core.normalization.prepare` the term
  satisfies the unconditional N-rule guarantees (no beta-redexes, no lets,
  no projections of record constructors, no zero/singleton/merge/conditional
  generator domains), the term equals what the declarative N1–N9 rule set
  (:mod:`repro.testing.normalization_spec`) reaches up to α-renaming, and
  normalization has reached a fixpoint;
* **plan well-formedness** — every operator of the unnested tree references
  only range variables bound below it, and never rebinds a column.

Each checker raises :class:`InvariantViolation` with a readable message;
:func:`check_invariants` runs them all and returns the violations.
"""

from __future__ import annotations

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
from repro.calculus.terms import (
    Apply,
    Comprehension,
    If,
    Lambda,
    Let,
    Merge,
    Proj,
    RecordCons,
    Singleton,
    Term,
    Zero,
    free_vars,
    subterms,
)
from repro.calculus.typing import infer_type
from repro.core.normalization import prepare
from repro.core.unnesting import _alpha_canonical, unnest
from repro.data.database import Database
from repro.oql.translator import parse_and_translate
from repro.testing.normalization_spec import canonicalize, normalize, reference_prepare
from repro.testing.oracle import substitute_params


class InvariantViolation(AssertionError):
    """A structural pipeline invariant failed for a specific query."""


# ---------------------------------------------------------------------------
# Type preservation
# ---------------------------------------------------------------------------


def _compatible(before: Any, after: Any) -> bool:
    """Type equality modulo ``any``: a later stage may *generalize* a type
    to ``any`` (e.g. normalization collapsing a contradictory filter to the
    monoid zero, whose element type is unconstrained) but may never change
    it to a different concrete type."""
    from repro.data.schema import AnyType, CollectionType, RecordType

    if isinstance(after, AnyType) or isinstance(before, AnyType):
        return True
    if isinstance(before, CollectionType) and isinstance(after, CollectionType):
        return before.monoid_name == after.monoid_name and _compatible(
            before.element, after.element
        )
    if isinstance(before, RecordType) and isinstance(after, RecordType):
        if [a for a, _ in before.fields] != [a for a, _ in after.fields]:
            return False
        return all(
            _compatible(bt, at)
            for (_, bt), (_, at) in zip(before.fields, after.fields)
        )
    return before == after


def check_type_preservation(term: Term, prepared: Term, plan: Operator, db: Database) -> None:
    """The term's static type survives normalization and unnesting."""
    from repro.algebra.typing import infer_plan_type

    translated_type = infer_type(term, db.schema)
    normalized_type = infer_type(prepared, db.schema)
    if not _compatible(translated_type, normalized_type):
        raise InvariantViolation(
            f"normalization changed the type: {translated_type} -> {normalized_type}"
        )
    plan_type = infer_plan_type(plan, db.schema)
    if not _compatible(normalized_type, plan_type):
        raise InvariantViolation(
            f"unnesting changed the type: {normalized_type} -> {plan_type}"
        )


# ---------------------------------------------------------------------------
# Normal form (N1-N9)
# ---------------------------------------------------------------------------


def check_normal_form(term: Term, prepared: Term) -> None:
    """The unconditional guarantees of Figure 4's normal form, and
    ``prepared == prepare(term)`` equal to the N1–N9 spec's up to α."""
    for sub in subterms(prepared):
        if isinstance(sub, Let):
            raise InvariantViolation(f"normal form contains a let: {sub!r}")
        if isinstance(sub, Apply) and isinstance(sub.fn, Lambda):
            raise InvariantViolation(f"normal form contains a beta-redex: {sub!r}")
        if isinstance(sub, Proj) and isinstance(sub.expr, RecordCons):
            raise InvariantViolation(
                f"normal form projects a record constructor (N2): {sub!r}"
            )
        if isinstance(sub, Comprehension):
            for generator in sub.generators():
                domain = generator.domain
                # N3-N6 fire unconditionally on these domain shapes.
                if isinstance(domain, (Zero, Singleton, Merge, If)):
                    raise InvariantViolation(
                        f"unnormalized generator domain (N3-N6): {domain!r}"
                    )
    if _alpha_canonical(reference_prepare(term)) != _alpha_canonical(prepared):
        raise InvariantViolation("prepare(t) differs from the N1-N9 spec's normal form")
    # Normalization is a fixpoint: no rule fires in its output.
    if canonicalize(normalize(prepared)) != prepared:
        raise InvariantViolation("normalize(prepare(t)) != prepare(t)")


# ---------------------------------------------------------------------------
# Plan well-formedness
# ---------------------------------------------------------------------------


def _check_operator(plan: Operator) -> tuple[str, ...]:
    """Recursively validate *plan*; returns its output columns."""

    def require(cond: bool, message: str) -> None:
        if not cond:
            raise InvariantViolation(f"{message} in {plan!s}")

    def scoped(term: Term, available: tuple[str, ...], what: str) -> None:
        unbound = free_vars(term) - set(available)
        require(not unbound, f"{what} references unbound columns {sorted(unbound)}")

    if isinstance(plan, Seed):
        return ()
    if isinstance(plan, Scan):
        return (plan.var,)
    if isinstance(plan, Select):
        cols = _check_operator(plan.child)
        scoped(plan.pred, cols, "select predicate")
        return cols
    if isinstance(plan, (Join, OuterJoin)):
        left = _check_operator(plan.left)
        right = _check_operator(plan.right)
        require(
            not set(left) & set(right),
            f"join sides rebind columns {sorted(set(left) & set(right))}",
        )
        scoped(plan.pred, left + right, "join predicate")
        return left + right
    if isinstance(plan, (Unnest, OuterUnnest)):
        cols = _check_operator(plan.child)
        require(plan.var not in cols, f"unnest rebinds column {plan.var!r}")
        scoped(plan.path, cols, "unnest path")
        scoped(plan.pred, cols + (plan.var,), "unnest predicate")
        return cols + (plan.var,)
    if isinstance(plan, Nest):
        cols = _check_operator(plan.child)
        require(
            set(plan.group_by) <= set(cols),
            f"nest groups by unbound columns {sorted(set(plan.group_by) - set(cols))}",
        )
        require(
            set(plan.null_vars) <= set(cols),
            f"nest null-tests unbound columns {sorted(set(plan.null_vars) - set(cols))}",
        )
        scoped(plan.head, cols, "nest head")
        scoped(plan.pred, cols, "nest predicate")
        require(plan.out_var not in plan.group_by, "nest output shadows a key")
        return tuple(plan.group_by) + (plan.out_var,)
    if isinstance(plan, Map):
        cols = _check_operator(plan.child)
        new = tuple(col for col, _ in plan.bindings)
        require(len(set(new)) == len(new), "map binds a column twice")
        require(not set(new) & set(cols), "map rebinds existing columns")
        for _, expr in plan.bindings:
            scoped(expr, cols, "map binding")
        return cols + new
    if isinstance(plan, Reduce):
        cols = _check_operator(plan.child)
        scoped(plan.head, cols, "reduce head")
        scoped(plan.pred, cols, "reduce predicate")
        return ()
    if isinstance(plan, Eval):
        cols = _check_operator(plan.child)
        scoped(plan.expr, cols, "eval expression")
        return ()
    raise InvariantViolation(f"unknown operator {type(plan).__name__}")


def check_plan_well_formed(plan: Operator) -> None:
    """Every operator references only columns bound beneath it."""
    require_root = isinstance(plan, (Reduce, Eval))
    if not require_root:
        raise InvariantViolation(
            f"plan root is {type(plan).__name__}, expected Reduce or Eval"
        )
    _check_operator(plan)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def check_invariants(
    source: str, params: Mapping[str, Any], db: Database
) -> list[str]:
    """Run every invariant checker on one query; returns violation messages.

    Queries that fail to compile are skipped (the differential oracle
    already checks that *all* paths agree on the failure).
    """
    try:
        term = substitute_params(parse_and_translate(source, db.schema), params)
        prepared = prepare(term)
        plan = unnest(prepared)
    except InvariantViolation:
        raise
    except Exception:
        return []
    violations: list[str] = []
    for name, check in (
        ("type-preservation", lambda: check_type_preservation(term, prepared, plan, db)),
        ("normal-form", lambda: check_normal_form(term, prepared)),
        ("plan-well-formed", lambda: check_plan_well_formed(plan)),
    ):
        try:
            check()
        except InvariantViolation as violation:
            violations.append(f"{name}: {violation}")
    return violations
