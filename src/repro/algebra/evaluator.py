"""Reference semantics for the nested relational algebra (Figure 5).

This evaluator interprets logical plans directly, tuple-at-a-time, with no
physical tricks (no hashing, no indexes): it is the executable form of the
definitional equations O1–O7 and serves as the middle point of the
correctness triangle

    calculus evaluator  ==  algebra evaluator  ==  physical engine

exercised by the integration tests.  The optimized execution lives in
:mod:`repro.engine`.

NULL policy (shared with the calculus evaluator): predicates that evaluate
to NULL are false; head values that evaluate to NULL contribute nothing to
*primitive* accumulators (a NULL cannot be summed or conjoined) but are kept
as elements of collection accumulators.
"""

from __future__ import annotations

from typing import Any, Iterator

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
    occurrence,
)
from repro.calculus.evaluator import EvaluationError, Evaluator as TermEvaluator, ExtentProvider
from repro.calculus.monoids import CollectionMonoid, Monoid
from repro.calculus.terms import Term
from repro.data.values import NULL, CollectionValue, SetValue, identity_key, is_null

Env = dict[str, Any]


class PlanEvaluator:
    """Evaluates algebra plans against an extent provider."""

    def __init__(self, database: ExtentProvider):
        self._terms = TermEvaluator(database)
        self._database = database
        self.steps = 0

    # -- public entry points -------------------------------------------------

    def evaluate(self, plan: Operator) -> Any:
        """Evaluate a plan rooted at a Reduce or Eval; returns its value."""
        if isinstance(plan, Reduce):
            return self._reduce(plan)
        if isinstance(plan, Eval):
            return self._eval_root(plan)
        raise TypeError(
            f"a complete plan must be rooted at Reduce or Eval, got "
            f"{type(plan).__name__}"
        )

    def _eval_root(self, plan: Eval) -> Any:
        envs = list(self.stream(plan.child))
        if len(envs) != 1:
            raise EvaluationError(
                f"Eval root expected exactly one environment, got {len(envs)}"
            )
        return self._value(plan.expr, envs[0])

    def stream(self, plan: Operator) -> Iterator[Env]:
        """The stream of environments produced by a non-root operator."""
        if isinstance(plan, Seed):
            yield {}
        elif isinstance(plan, Scan):
            yield from self._scan(plan)
        elif isinstance(plan, Select):
            yield from self._select(plan)
        elif isinstance(plan, Map):
            yield from self._map(plan)
        elif isinstance(plan, Join):
            yield from self._join(plan)
        elif isinstance(plan, OuterJoin):
            yield from self._outer_join(plan)
        elif isinstance(plan, Unnest):
            yield from self._unnest(plan)
        elif isinstance(plan, OuterUnnest):
            yield from self._outer_unnest(plan)
        elif isinstance(plan, Nest):
            yield from self._nest(plan)
        else:
            raise TypeError(f"cannot stream {type(plan).__name__}")

    # -- term helpers ---------------------------------------------------------

    def _value(self, term: Term, env: Env) -> Any:
        return self._terms.evaluate(term, env)

    def _holds(self, pred: Term, env: Env) -> bool:
        value = self._value(pred, env)
        if value is True:
            return True
        if value is False or is_null(value):
            return False
        raise EvaluationError("operator predicate did not evaluate to a boolean")

    # -- operators -------------------------------------------------------------

    def _scan(self, plan: Scan) -> Iterator[Env]:
        for binding in _bindings(plan.var, self._database.extent(plan.extent)):
            self.steps += 1
            yield binding

    def _select(self, plan: Select) -> Iterator[Env]:
        for env in self.stream(plan.child):
            if self._holds(plan.pred, env):
                yield env

    def _map(self, plan: Map) -> Iterator[Env]:
        for env in self.stream(plan.child):
            extended = dict(env)
            for name, expr in plan.bindings:
                extended[name] = self._value(expr, extended)
            yield extended

    def _join(self, plan: Join) -> Iterator[Env]:
        right = list(self.stream(plan.right))
        for left_env in self.stream(plan.left):
            for right_env in right:
                self.steps += 1
                env = {**left_env, **right_env}
                if self._holds(plan.pred, env):
                    yield env

    def _outer_join(self, plan: OuterJoin) -> Iterator[Env]:
        right = list(self.stream(plan.right))
        right_columns = plan.right.columns()
        for left_env in self.stream(plan.left):
            matched = False
            for right_env in right:
                self.steps += 1
                env = {**left_env, **right_env}
                if self._holds(plan.pred, env):
                    matched = True
                    yield env
            if not matched:
                yield {**left_env, **{col: NULL for col in right_columns}}

    def _elements(self, plan: Unnest | OuterUnnest, env: Env) -> list[Env]:
        value = self._value(plan.path, env)
        if is_null(value):
            return []
        if not isinstance(value, CollectionValue):
            raise EvaluationError(
                f"unnest path evaluated to {type(value).__name__}, "
                "expected a collection"
            )
        return _bindings(plan.var, value)

    def _unnest(self, plan: Unnest) -> Iterator[Env]:
        for env in self.stream(plan.child):
            for binding in self._elements(plan, env):
                self.steps += 1
                extended = {**env, **binding}
                if self._holds(plan.pred, extended):
                    yield extended

    def _outer_unnest(self, plan: OuterUnnest) -> Iterator[Env]:
        for env in self.stream(plan.child):
            matched = False
            for binding in self._elements(plan, env):
                self.steps += 1
                extended = {**env, **binding}
                if self._holds(plan.pred, extended):
                    matched = True
                    yield extended
            if not matched:
                yield {**env, plan.var: NULL}

    def _contribution(self, monoid: Monoid, head: Term, env: Env) -> Any | None:
        """The value an environment contributes to a reduction, or None."""
        value = self._value(head, env)
        if isinstance(monoid, CollectionMonoid):
            return monoid.unit(value)
        if is_null(value):
            return None  # NULL contributes nothing to a primitive accumulator
        return monoid.lift(value)

    def _reduce(self, plan: Reduce) -> Any:
        monoid = plan.monoid
        result = monoid.zero
        for env in self.stream(plan.child):
            if not self._holds(plan.pred, env):
                continue
            contribution = self._contribution(monoid, plan.head, env)
            if contribution is not None:
                result = monoid.merge(result, contribution)
        if isinstance(monoid, CollectionMonoid):
            return result
        return monoid.finalize(result)

    def _nest(self, plan: Nest) -> Iterator[Env]:
        monoid = plan.monoid
        groups: dict[tuple[Any, ...], Any] = {}
        order: list[tuple[Any, ...]] = []
        keys_to_env: dict[tuple[Any, ...], Env] = {}
        tags = [(col, occurrence(col)) for col in plan.group_by]
        carried = plan.group_by + tuple(tag for _, tag in tags)
        for env in self.stream(plan.child):
            self.steps += 1
            # Group by binding: the unnesting translation (rule C5) groups
            # by the outer range variables assuming bindings are
            # distinguishable.  An element of a bag or list is its
            # occurrence, any other its identity (identity_key: the value
            # itself where there is no stored object).
            key = tuple(env[t] if t in env else identity_key(env[c]) for c, t in tags)
            if key not in groups:
                groups[key] = monoid.zero
                order.append(key)
                keys_to_env[key] = {name: env[name] for name in carried if name in env}
            if any(is_null(env[col]) for col in plan.null_vars):
                continue  # NULL padding converts to the monoid's zero
            if not self._holds(plan.pred, env):
                continue
            contribution = self._contribution(monoid, plan.head, env)
            if contribution is not None:
                groups[key] = monoid.merge(groups[key], contribution)
        finalize = (
            (lambda v: v) if isinstance(monoid, CollectionMonoid) else monoid.finalize
        )
        for key in order:
            yield {**keys_to_env[key], plan.out_var: finalize(groups[key])}


def _bindings(var: str, collection: CollectionValue) -> list[Env]:
    """*var* bound to each element of *collection* (of a bag or list: and
    to its occurrence)."""
    tag = None if isinstance(collection, SetValue) else occurrence(var)
    elements = enumerate(collection.elements())
    return [{var: e, tag: pos} if tag else {var: e} for pos, e in elements]


def evaluate_plan(plan: Operator, database: ExtentProvider) -> Any:
    """Convenience wrapper: evaluate *plan* against *database*."""
    return PlanEvaluator(database).evaluate(plan)
