"""Typing rules for the nested relational algebra (paper Figure 6).

``infer_plan_type`` checks an algebra plan against a schema: every operator
must consume the environment its child produces, predicates must be boolean,
unnest paths must be collections, and the root reduce's type is the monoid's
carrier (a set of the head type for the set monoid, bool for quantifiers,
numeric for aggregates) — exactly the judgements of Figure 6.

The same walk is the one typing of a plan (:func:`type_plan`).  It records
the type of every column the plan binds, from which the physical planner
takes the keys a hash table files bare, and it finds the variables a nest
groups by that range over a bag or a list, which the planner and the SQL
lowering give an occurrence column.

Environment types are mappings from column names to data-model types; the
paper's nested-pair types ``set(t1 × t2)`` are these environments keyed by
name.
"""

from __future__ import annotations

from typing import Any, Iterable

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
from repro.calculus.terms import Term
from repro.calculus.typing import _PRIMITIVE_MONOID_TYPES, CalculusTypeError, TypeChecker
from repro.data.schema import (
    ANY,
    AnyType,
    BoolType,
    CollectionType,
    FloatType,
    IntType,
    Schema,
    StringType,
    Type,
)
from repro.data.values import SetValue
from repro.errors import QueryError, TypeCheckError

EnvType = dict[str, Type]

#: Key types whose values identity_key returns as they are.
_BARE_TYPES = (BoolType, IntType, FloatType, StringType)


class AlgebraTypeError(TypeCheckError, TypeError):
    """A plan violates the typing rules of Figure 6.

    Both a :class:`~repro.errors.TypeCheckError` (the structured taxonomy)
    and a ``TypeError`` (the historical base, for existing callers).
    """


def infer_plan_type(plan: Operator, schema: Schema | None = None) -> Type:
    """The result type of a complete plan (rooted at Reduce or Eval)."""
    return PlanTypeChecker(schema).type_plan(plan)


def type_plan(plan: Operator, database: Any, strict: bool = False) -> "PlanTypeChecker":
    """The typing of *plan* in *database* (None: no schema).  With
    *strict* its first violation raises; without, every column typed after
    it is ANY, and the plan runs as it stands."""
    typing = PlanTypeChecker(getattr(database, "schema", None), strict)
    typing.type_plan(plan, database)
    return typing


class PlanTypeChecker:
    """Infers the environment type of every operator's output stream, and
    keeps what the walk found: :attr:`columns` and :attr:`occurring`."""

    def __init__(self, schema: Schema | None = None, strict: bool = True):
        self._schema = schema
        self._terms = TypeChecker(schema)
        self._strict = strict
        self._failed = False
        #: The type of every column the plan binds, by name.
        self.columns: EnvType = {}
        #: The variables a nest groups by that range over a bag or a list.
        self.occurring: frozenset[str] = frozenset()
        self._grouped: set[str] = set()
        #: Per scan variable its extent, per unnest variable its path's type.
        self._ranges: dict[str, str | Type] = {}

    def type_plan(self, plan: Operator, database: Any = None) -> Type:
        """The result type of a complete *plan*, recording its columns and,
        with *database*, its occurring variables: a scan's by its extent's
        stored kind, an unnest's by its path's type (ANY counts)."""
        if isinstance(plan, Reduce):
            env = self.stream_type(plan.child)
            self.check_bool(plan.pred, env, "reduce predicate")
            result = self.reduction_type(plan.monoid_name, plan.head, env)
        elif isinstance(plan, Eval):
            result = self.infer(plan.expr, self.stream_type(plan.child))
        elif self._strict:
            raise AlgebraTypeError(
                f"a complete plan must be rooted at Reduce or Eval, got "
                f"{type(plan).__name__}"
            )
        else:
            self.stream_type(plan)  # a stream, run as it is
            result = ANY
        if database is not None:
            self.occurring = frozenset(
                var for var in self._grouped if self._repeats(var, database)
            )
        return result

    def _repeats(self, var: str, database: Any) -> bool:
        where = self._ranges.get(var)
        if isinstance(where, str):
            try:
                return not isinstance(database.extent(where), SetValue)
            except QueryError:
                return False  # a scan that fails, when it runs
        return where is not None and getattr(where, "monoid_name", None) != "set"

    def bare(self, terms: Iterable[Term]) -> tuple[bool, ...]:
        """Per term over the plan's columns, whether it is typed a scalar,
        whose values a hash table then files as they are, not through
        identity_key."""
        return tuple(isinstance(self._type_of(term), _BARE_TYPES) for term in terms)

    def _type_of(self, term: Term) -> Type:
        try:
            return self._terms.infer(term, self.columns)
        except CalculusTypeError:
            return ANY

    # -- term-level helpers ------------------------------------------------------

    def _fail(self, message: str, cause: Exception | None = None) -> Type:
        """A violation: raised when strict; else ANY, as is all typed after."""
        if self._strict:
            raise AlgebraTypeError(message) from cause
        self._failed = True
        return ANY

    def infer(self, term: Term, env: EnvType) -> Type:
        if self._failed:
            return ANY
        try:
            return self._terms.infer(term, env)
        except CalculusTypeError as exc:
            return self._fail(str(exc), exc)

    def check_bool(self, term: Term, env: EnvType, what: str) -> None:
        inferred = self.infer(term, env)
        if not isinstance(inferred, (BoolType, AnyType)):
            self._fail(f"{what} has type {inferred}, expected bool")

    def reduction_type(self, monoid_name: str, head: Term, env: EnvType) -> Type:
        head_type = self.infer(head, env)
        if monoid_name in _PRIMITIVE_MONOID_TYPES:
            return _PRIMITIVE_MONOID_TYPES[monoid_name]
        return CollectionType(monoid_name, head_type)

    def _bind(self, env: EnvType, var: str, type_: Type) -> None:
        env[var] = self.columns[var] = ANY if self._failed else type_

    # -- operator rules -------------------------------------------------------------

    def stream_type(self, plan: Operator) -> EnvType:
        if isinstance(plan, Seed):
            return {}
        if isinstance(plan, Scan):
            self._ranges[plan.var] = plan.extent
            env: EnvType = {}
            self._bind(env, plan.var, self._scan_type(plan))
            return env
        if isinstance(plan, Select):
            env = self.stream_type(plan.child)
            self.check_bool(plan.pred, env, "selection predicate")
            return env
        if isinstance(plan, Map):
            env = dict(self.stream_type(plan.child))
            for name, expr in plan.bindings:
                self._bind(env, name, self.infer(expr, env))
            return env
        if isinstance(plan, (Join, OuterJoin)):
            left = self.stream_type(plan.left)
            right = self.stream_type(plan.right)
            merged = {**left, **right}
            self.check_bool(plan.pred, merged, "join predicate")
            return merged
        if isinstance(plan, (Unnest, OuterUnnest)):
            env = dict(self.stream_type(plan.child))
            domain = self._ranges[plan.var] = self.infer(plan.path, env)
            if isinstance(domain, AnyType):
                element: Type = ANY
            elif isinstance(domain, CollectionType):
                element = domain.element
            else:
                element = self._fail(f"unnest path has non-collection type {domain}")
            self._bind(env, plan.var, element)
            self.check_bool(plan.pred, env, "unnest predicate")
            return env
        if isinstance(plan, Nest):
            env = self.stream_type(plan.child)
            self._grouped.update(plan.group_by)
            missing = (set(plan.group_by) | set(plan.null_vars)) - set(env)
            if missing:
                self._fail(f"nest references unknown columns {sorted(missing)}")
            self.check_bool(plan.pred, env, "nest predicate")
            out: EnvType = {col: env.get(col, ANY) for col in plan.group_by}
            self._bind(out, plan.out_var, self.reduction_type(plan.monoid_name, plan.head, env))
            return out
        self._fail(f"cannot type operator {type(plan).__name__}")
        return dict.fromkeys(plan.columns(), ANY)

    def _scan_type(self, plan: Scan) -> Type:
        if self._schema is not None and self._schema.has_extent(plan.extent):
            return self._schema.extent_type(plan.extent).element
        return ANY
