"""The nested relational algebra of Section 3 (Figures 5 and 6).

Operators: join (O1), selection (O2), unnest (O3), reduce (O4), left
outer-join (O5), outer-unnest (O6), and nest (O7).  ``Scan`` (the paper's
``Get``/extent leaf) and ``Seed`` (the unit input stream ``{()}`` used by
the unnesting algorithm's seed, Figure 7 rule C1) complete the set.

The paper passes nested pairs ``(w, v)`` between operators; we pass
*environments* — mappings from range-variable names to values — which is the
same information keyed by name instead of by position.  Every operator other
than ``Reduce`` produces a stream of environments; ``Reduce`` produces a
single value and is always the root.

Operator parameters (predicates, heads, paths) are calculus terms whose free
variables refer to the environment's columns.  ``columns()`` reports which
variables an operator's output stream binds — the unnesting algorithm's
``w`` is exactly ``plan.columns()``.

A variable over a bag or a list also binds its :func:`occurrence`, the
element's position there, which a nest groups by instead of the element:
two occurrences of one value or object are two bindings, as the calculus
counts them (arXiv:1404.7078 §4: an element *is* its ``($parent, $pos)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Iterator

from repro.calculus.monoids import Monoid, monoid as lookup_monoid
from repro.calculus.terms import TRUE, Term


class Operator:
    """Base class for all algebra operators."""

    __slots__ = ()

    def columns(self) -> tuple[str, ...]:
        """The range variables bound by this operator's output stream."""
        raise NotImplementedError

    def children(self) -> tuple["Operator", ...]:
        return ()

    def __str__(self) -> str:
        from repro.algebra.pretty import pretty_plan

        return pretty_plan(self)


def occurrence(var: str) -> str:
    """The hidden column of *var*'s position in the bag or list it ranges over."""
    return var + "#"


def _check_monoid(name: str) -> Monoid:
    return lookup_monoid(name)


@dataclass(frozen=True)
class Seed(Operator):
    """The unit input stream ``{()}``: exactly one empty environment.

    This is the seed of the translation (Figure 7, the ``{()}``
    superscript of rule C1): boxes with no enclosing generators are spliced
    onto it.
    """

    def columns(self) -> tuple[str, ...]:
        return ()


@dataclass(frozen=True)
class Scan(Operator):
    """A class-extent leaf: binds *var* to each object of extent *extent*."""

    extent: str
    var: str

    def columns(self) -> tuple[str, ...]:
        return (self.var,)


@dataclass(frozen=True)
class Select(Operator):
    """Selection σ_p (O2): keeps environments whose predicate is true."""

    child: Operator
    pred: Term

    def columns(self) -> tuple[str, ...]:
        return self.child.columns()

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)


@dataclass(frozen=True)
class Join(Operator):
    """Join ⋈_p (O1): all pairs of left/right environments satisfying p."""

    left: Operator
    right: Operator
    pred: Term

    def __post_init__(self) -> None:
        overlap = set(self.left.columns()) & set(self.right.columns())
        if overlap:
            raise ValueError(f"join sides share columns {sorted(overlap)}")

    def columns(self) -> tuple[str, ...]:
        return self.left.columns() + self.right.columns()

    def children(self) -> tuple[Operator, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Unnest(Operator):
    """Unnest μ^path_p (O3): binds *var* to each element of *path*.

    *path* is a calculus term over the input columns evaluating to a
    collection; environments whose collection is empty produce nothing.
    """

    child: Operator
    path: Term
    var: str
    pred: Term = TRUE

    def columns(self) -> tuple[str, ...]:
        return self.child.columns() + (self.var,)

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)


@dataclass(frozen=True)
class OuterJoin(Operator):
    """Left outer-join ⟕_p (O5).

    Like ``Join`` but a left environment with no qualifying right partner is
    padded with NULL for every right column, so the left stream is never
    blocked — the key property the unnesting algorithm relies on.
    """

    left: Operator
    right: Operator
    pred: Term

    def __post_init__(self) -> None:
        overlap = set(self.left.columns()) & set(self.right.columns())
        if overlap:
            raise ValueError(f"outer-join sides share columns {sorted(overlap)}")

    def columns(self) -> tuple[str, ...]:
        return self.left.columns() + self.right.columns()

    def children(self) -> tuple[Operator, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class OuterUnnest(Operator):
    """Outer-unnest =μ^path_p (O6).

    Like ``Unnest`` but an environment whose collection is empty, NULL, or
    has no element satisfying the predicate is padded with ``var = NULL``.
    """

    child: Operator
    path: Term
    var: str
    pred: Term = TRUE

    def columns(self) -> tuple[str, ...]:
        return self.child.columns() + (self.var,)

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)


@dataclass(frozen=True)
class Reduce(Operator):
    """Reduce Δ^{⊕/e}_p (O4): the root of every plan.

    Merges ``e(env)`` over all qualifying environments with the accumulator
    ⊕ — a generalized projection that also covers aggregation (⊕ = sum, …)
    and quantification (⊕ = all/some), exactly as in the paper.
    """

    child: Operator
    monoid_name: str
    head: Term
    pred: Term = TRUE

    def __post_init__(self) -> None:
        _check_monoid(self.monoid_name)

    @property
    def monoid(self) -> Monoid:
        return lookup_monoid(self.monoid_name)

    @property
    def symbol(self) -> str:
        return self.monoid.symbol

    def columns(self) -> tuple[str, ...]:
        return ()  # produces a value, not a stream

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)


@dataclass(frozen=True)
class Nest(Operator):
    """Nest Γ^{⊕/e/g}_{p/f} (O7): grouping with accumulation.

    Groups the input by the *group_by* columns (the paper's group-by
    function ``f = w\\u``), reduces each group's ``head`` values with ⊕, and
    emits one environment per group binding *out_var* to the group's result.
    Environments in which any *null_vars* column (the paper's ``g``, i.e.
    the variables introduced inside the spliced box by outer-joins and
    outer-unnests) is NULL contribute nothing, so a group consisting only of
    NULL-padding reduces to the monoid's zero — the null-to-zero conversion
    of the paper.
    """

    child: Operator
    monoid_name: str
    head: Term
    group_by: tuple[str, ...]
    null_vars: tuple[str, ...]
    out_var: str
    pred: Term = TRUE

    def __post_init__(self) -> None:
        _check_monoid(self.monoid_name)
        missing = set(self.group_by) | set(self.null_vars)
        missing -= set(self.child.columns())
        if missing:
            raise ValueError(
                f"nest references columns {sorted(missing)} not produced by its "
                f"input ({self.child.columns()})"
            )

    @property
    def monoid(self) -> Monoid:
        return lookup_monoid(self.monoid_name)

    @property
    def symbol(self) -> str:
        return self.monoid.symbol

    def columns(self) -> tuple[str, ...]:
        return self.group_by + (self.out_var,)

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)


@dataclass(frozen=True)
class Map(Operator):
    """Extend each environment with computed columns.

    Not one of the paper's Figure 5 operators; it is the standard
    materialize-a-projection step the Section 5 simplification uses to turn
    grouping *by an expression* (Figure 8.B groups by ``e.dno``) into
    grouping by a column.
    """

    child: Operator
    bindings: tuple[tuple[str, Term], ...]

    def __post_init__(self) -> None:
        clash = {name for name, _ in self.bindings} & set(self.child.columns())
        if clash:
            raise ValueError(f"map rebinds existing columns {sorted(clash)}")

    def columns(self) -> tuple[str, ...]:
        return self.child.columns() + tuple(name for name, _ in self.bindings)

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)


@dataclass(frozen=True)
class Eval(Operator):
    """Evaluate an expression over a singleton stream and return its value.

    Not one of the paper's operators: it is the root used for top-level
    queries that are not themselves comprehensions (e.g. a merge of two
    comprehensions produced by normalization rule N3).  Its child must
    produce exactly one environment — which splices onto ``Seed`` guarantee.
    """

    child: Operator
    expr: Term

    def columns(self) -> tuple[str, ...]:
        return ()

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)


def operators(plan: Operator) -> Iterator[Operator]:
    """All operators in *plan*, pre-order."""
    yield plan
    for child in plan.children():
        yield from operators(child)


def rebuild(plan: Operator, children: tuple[Operator, ...]) -> Operator:
    """Reconstruct *plan* with new children (in ``children()`` order)."""
    if isinstance(plan, (Seed, Scan)):
        return plan
    if isinstance(plan, Select):
        return Select(children[0], plan.pred)
    if isinstance(plan, Join):
        return Join(children[0], children[1], plan.pred)
    if isinstance(plan, OuterJoin):
        return OuterJoin(children[0], children[1], plan.pred)
    if isinstance(plan, Unnest):
        return Unnest(children[0], plan.path, plan.var, plan.pred)
    if isinstance(plan, OuterUnnest):
        return OuterUnnest(children[0], plan.path, plan.var, plan.pred)
    if isinstance(plan, Reduce):
        return Reduce(children[0], plan.monoid_name, plan.head, plan.pred)
    if isinstance(plan, Eval):
        return Eval(children[0], plan.expr)
    if isinstance(plan, Map):
        return Map(children[0], plan.bindings)
    if isinstance(plan, Nest):
        return Nest(
            children[0],
            plan.monoid_name,
            plan.head,
            plan.group_by,
            plan.null_vars,
            plan.out_var,
            plan.pred,
        )
    raise TypeError(f"unknown operator {type(plan).__name__}")


def transform_plan(plan: Operator, fn) -> Operator:
    """Rebuild *plan* bottom-up, applying *fn* at every node; an operator
    whose children all come back as themselves is passed on as itself."""
    children = plan.children()
    walked = tuple([transform_plan(c, fn) for c in children])
    if not all(map(is_, walked, children)):
        plan = rebuild(plan, walked)
    return fn(plan)
