"""Terms of the monoid comprehension calculus (paper Section 2, Figure 3).

The calculus is the intermediate form OODB queries are translated into.  Its
terms are variables, constants, NULL, record construction and projection,
lambda abstraction/application, conditionals, primitive operations, class
extents, collection constructors (zero / singleton / merge), and — centrally —
monoid comprehensions ``⊕{ e | q1, ..., qn }`` whose qualifiers are
generators ``v <- e`` and filters ``p``.

All terms are immutable (frozen dataclasses) and compare structurally, which
makes the rewrite systems (normalization, unnesting, simplification) simple
term-to-term functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import is_
from typing import Any, Callable, Iterator

from repro.calculus.monoids import MONOID_SYMBOLS, Monoid, monoid as lookup_monoid


class Term:
    """Base class for every calculus term."""

    __slots__ = ()

    def children(self) -> tuple["Term", ...]:
        """Direct sub-terms, in syntactic order."""
        return ()

    def __str__(self) -> str:
        from repro.calculus.pretty import pretty

        return pretty(self)


# ---------------------------------------------------------------------------
# Atomic terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var(Term):
    """A variable reference."""

    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@dataclass(frozen=True)
class Const(Term):
    """A literal constant (bool, int, float, or string)."""

    value: Any

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


@dataclass(frozen=True)
class Null(Term):
    """The NULL literal (Section 2: every type domain contains NULL)."""


@dataclass(frozen=True)
class Extent(Term):
    """A reference to a class extent (a named top-level set of objects)."""

    name: str


@dataclass(frozen=True)
class Param(Term):
    """A prepared-statement placeholder (OQL ``:name``).

    A parameter behaves like a constant whose value is supplied at execution
    time (:meth:`repro.core.pipeline.CompiledQuery.bind`): it has no free
    variables, so normalization, unnesting, and physical planning treat it
    exactly like a literal — the same plan serves every binding.
    """

    name: str

    def __repr__(self) -> str:
        return f"Param({self.name!r})"


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecordCons(Term):
    """Record construction ``( A1 = e1, ..., An = en )``."""

    fields: tuple[tuple[str, Term], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.fields]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate record attributes in {names}")

    def children(self) -> tuple[Term, ...]:
        return tuple(expr for _, expr in self.fields)

    def field_expr(self, name: str) -> Term:
        for field_name, expr in self.fields:
            if field_name == name:
                return expr
        raise KeyError(name)


@dataclass(frozen=True)
class Proj(Term):
    """Record projection ``e.A`` (typing rule T2)."""

    expr: Term
    attr: str

    def children(self) -> tuple[Term, ...]:
        return (self.expr,)


# ---------------------------------------------------------------------------
# Functions and control
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lambda(Term):
    """Function abstraction ``λv. e`` (typing rule T6)."""

    param: str
    body: Term

    def children(self) -> tuple[Term, ...]:
        return (self.body,)


@dataclass(frozen=True)
class Apply(Term):
    """Function application ``e1(e2)`` (typing rule T7)."""

    fn: Term
    arg: Term

    def children(self) -> tuple[Term, ...]:
        return (self.fn, self.arg)


@dataclass(frozen=True)
class If(Term):
    """Conditional ``if e1 then e2 else e3`` (typing rule T5)."""

    cond: Term
    then: Term
    orelse: Term

    def children(self) -> tuple[Term, ...]:
        return (self.cond, self.then, self.orelse)


@dataclass(frozen=True)
class Let(Term):
    """``let v = e1 in e2`` — used by reduction rule D6 and by CSE."""

    var: str
    value: Term
    body: Term

    def children(self) -> tuple[Term, ...]:
        return (self.value, self.body)


#: Binary operators supported by the calculus, with their printed form.
BINARY_OPS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
    "%": "%",
    "==": "=",
    "!=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "and": "and",
    "or": "or",
}

COMPARISON_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})
ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%"})
BOOLEAN_OPS = frozenset({"and", "or"})


@dataclass(frozen=True)
class BinOp(Term):
    """A primitive binary operation (arithmetic, comparison, or boolean)."""

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")

    def children(self) -> tuple[Term, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Not(Term):
    """Boolean negation."""

    expr: Term

    def children(self) -> tuple[Term, ...]:
        return (self.expr,)


@dataclass(frozen=True)
class IsNull(Term):
    """The null test — the only observation permitted on NULL."""

    expr: Term

    def children(self) -> tuple[Term, ...]:
        return (self.expr,)


# ---------------------------------------------------------------------------
# Collections and comprehensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Zero(Term):
    """The zero element of a monoid (e.g. ``{}`` for set, 0 for sum)."""

    monoid_name: str

    @property
    def monoid(self) -> Monoid:
        return lookup_monoid(self.monoid_name)


@dataclass(frozen=True)
class Singleton(Term):
    """The unit injection of a collection monoid, e.g. ``{ e }``."""

    monoid_name: str
    expr: Term

    @property
    def monoid(self) -> Monoid:
        return lookup_monoid(self.monoid_name)

    def children(self) -> tuple[Term, ...]:
        return (self.expr,)


@dataclass(frozen=True)
class Merge(Term):
    """The accumulator applied to two terms: ``e1 ⊕ e2``."""

    monoid_name: str
    left: Term
    right: Term

    @property
    def monoid(self) -> Monoid:
        return lookup_monoid(self.monoid_name)

    def children(self) -> tuple[Term, ...]:
        return (self.left, self.right)


class Qualifier:
    """A comprehension qualifier: a generator or a filter."""

    __slots__ = ()


@dataclass(frozen=True)
class Generator(Qualifier):
    """A generator ``v <- e``: *v* ranges over the collection *e*."""

    var: str
    domain: Term

    def __str__(self) -> str:
        return f"{self.var} <- {self.domain}"


@dataclass(frozen=True)
class Filter(Qualifier):
    """A filter qualifier: a boolean predicate."""

    pred: Term

    def __str__(self) -> str:
        return str(self.pred)


@dataclass(frozen=True)
class Comprehension(Term):
    """A monoid comprehension ``⊕{ e | q1, ..., qn }``.

    ``monoid_name`` names the accumulator ⊕; ``head`` is the expression e;
    ``qualifiers`` is the (possibly empty) sequence of generators and
    filters, evaluated left to right.
    """

    monoid_name: str
    head: Term
    qualifiers: tuple[Qualifier, ...] = ()

    @property
    def monoid(self) -> Monoid:
        return lookup_monoid(self.monoid_name)

    def children(self) -> tuple[Term, ...]:
        parts: list[Term] = [self.head]
        for qualifier in self.qualifiers:
            if isinstance(qualifier, Generator):
                parts.append(qualifier.domain)
            else:
                parts.append(qualifier.pred)
        return tuple(parts)

    def generators(self) -> tuple[Generator, ...]:
        return tuple(q for q in self.qualifiers if isinstance(q, Generator))

    def filters(self) -> tuple[Filter, ...]:
        return tuple(q for q in self.qualifiers if isinstance(q, Filter))

    @property
    def symbol(self) -> str:
        return MONOID_SYMBOLS[self.monoid_name]


# ---------------------------------------------------------------------------
# Construction helpers (a tiny DSL so tests and examples stay readable)
# ---------------------------------------------------------------------------


def var(name: str) -> Var:
    """Shorthand for :class:`Var`."""
    return Var(name)


def const(value: Any) -> Const:
    """Shorthand for :class:`Const`."""
    return Const(value)


def record(**fields: Term) -> RecordCons:
    """Build a record constructor from keyword arguments."""
    return RecordCons(tuple(sorted(fields.items())))


def path(base: Term | str, *attrs: str) -> Term:
    """Build a projection chain ``base.a1.a2...`` from attribute names."""
    expr: Term = Var(base) if isinstance(base, str) else base
    for attr in attrs:
        expr = Proj(expr, attr)
    return expr


def comprehension(
    monoid_name: str, head: Term, *qualifiers: Qualifier | Term | tuple[str, Term]
) -> Comprehension:
    """Build a comprehension; bare terms become filters, pairs generators.

    >>> comprehension("set", var("e"), ("e", Extent("Employees")),
    ...               BinOp("==", path("e", "dno"), const(4)))
    """
    quals: list[Qualifier] = []
    for qualifier in qualifiers:
        if isinstance(qualifier, Qualifier):
            quals.append(qualifier)
        elif isinstance(qualifier, tuple):
            var_name, domain = qualifier
            quals.append(Generator(var_name, domain))
        elif isinstance(qualifier, Term):
            quals.append(Filter(qualifier))
        else:
            raise TypeError(f"bad qualifier {qualifier!r}")
    return Comprehension(monoid_name, head, tuple(quals))


#: The constant true — "no predicate" — as one shared object: the kernel
#: compiler recognises a term it has lowered before by identity, and the
#: planner asks for the conjunction of no predicates on every execution.
TRUE = Const(True)


def conj(*preds: Term) -> Term:
    """The conjunction of predicates; () becomes the constant :data:`TRUE`."""
    terms = [p for p in preds if p != TRUE]
    if not terms:
        return TRUE
    result = terms[0]
    for pred in terms[1:]:
        result = BinOp("and", result, pred)
    return result


def conjuncts(pred: Term) -> list[Term]:
    """Split a predicate into its top-level conjuncts."""
    if isinstance(pred, BinOp) and pred.op == "and":
        return conjuncts(pred.left) + conjuncts(pred.right)
    if pred == TRUE:
        return []
    return [pred]


# ---------------------------------------------------------------------------
# Structural traversal
# ---------------------------------------------------------------------------


def subterms(term: Term) -> Iterator[Term]:
    """All subterms of *term*, pre-order, including *term* itself."""
    yield term
    for child in term.children():
        yield from subterms(child)


def transform(term: Term, fn: Callable[[Term], Term]) -> Term:
    """Rebuild *term* bottom-up, applying *fn* to every node.

    *fn* receives each node after its children have been transformed and
    returns the (possibly unchanged) replacement.  A node whose children all
    come back as themselves is passed on as itself, not copied.
    """
    children = term.children()
    if children:
        walked = tuple([transform(c, fn) for c in children])
        if not all(map(is_, walked, children)):
            term = _rebuild(term, walked)
    return fn(term)


def _rebuild(term: Term, children: tuple[Term, ...]) -> Term:
    """Reconstruct a node with new children (in ``children()`` order)."""
    if not children:
        # Leaves (Var, Const, Null, Extent, Zero, and any extension node
        # that reports no children) are reused as-is.
        return term
    if isinstance(term, RecordCons):
        names = [name for name, _ in term.fields]
        return RecordCons(tuple(zip(names, children)))
    if isinstance(term, Proj):
        return Proj(children[0], term.attr)
    if isinstance(term, Lambda):
        return Lambda(term.param, children[0])
    if isinstance(term, Apply):
        return Apply(children[0], children[1])
    if isinstance(term, If):
        return If(children[0], children[1], children[2])
    if isinstance(term, Let):
        return Let(term.var, children[0], children[1])
    if isinstance(term, BinOp):
        return BinOp(term.op, children[0], children[1])
    if isinstance(term, Not):
        return Not(children[0])
    if isinstance(term, IsNull):
        return IsNull(children[0])
    if isinstance(term, Singleton):
        return Singleton(term.monoid_name, children[0])
    if isinstance(term, Merge):
        return Merge(term.monoid_name, children[0], children[1])
    if isinstance(term, Comprehension):
        head, rest = children[0], list(children[1:])
        quals: list[Qualifier] = []
        for qualifier in term.qualifiers:
            child = rest.pop(0)
            if isinstance(qualifier, Generator):
                quals.append(Generator(qualifier.var, child))
            else:
                quals.append(Filter(child))
        return Comprehension(term.monoid_name, head, tuple(quals))
    raise TypeError(f"unknown term type {type(term).__name__}")


# ---------------------------------------------------------------------------
# Variables: free variables, substitution, fresh names
# ---------------------------------------------------------------------------


def free_vars(term: Term) -> frozenset[str]:
    """The free variables of *term* (generators and lambdas bind)."""
    if isinstance(term, Var):
        return frozenset({term.name})
    if isinstance(term, Lambda):
        return free_vars(term.body) - {term.param}
    if isinstance(term, Let):
        return free_vars(term.value) | (free_vars(term.body) - {term.var})
    if isinstance(term, Comprehension):
        bound: set[str] = set()
        free: set[str] = set()
        for qualifier in term.qualifiers:
            if isinstance(qualifier, Generator):
                free |= free_vars(qualifier.domain) - bound
                bound.add(qualifier.var)
            else:
                free |= free_vars(qualifier.pred) - bound
        free |= free_vars(term.head) - bound
        return frozenset(free)
    result: frozenset[str] = frozenset()
    for child in term.children():
        result |= free_vars(child)
    return result


def param_names(term: Term) -> frozenset[str]:
    """The names of every :class:`Param` placeholder inside *term*."""
    return frozenset(
        sub.name for sub in subterms(term) if isinstance(sub, Param)
    )


_GLOBAL_FRESH = itertools.count(1)


def fresh_name(hint: str = "v") -> str:
    """A process-unique fresh variable name (used by the unnester)."""
    return f"_{hint}{next(_GLOBAL_FRESH)}"


def substitute(term: Term, mapping: dict[str, Term]) -> Term:
    """Capture-avoiding substitution of free variables.

    Bound variables that would capture a free variable of a substituted term
    are renamed first.
    """
    if not mapping:
        return term
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, Lambda):
        return _subst_binder(term, mapping)
    if isinstance(term, Let):
        return _subst_let(term, mapping)
    if isinstance(term, Comprehension):
        return _subst_comprehension(term, mapping)
    return _rebuild(term, tuple(substitute(c, mapping) for c in term.children()))


def _needs_rename(binder: str, mapping: dict[str, Term], body_free: frozenset[str]) -> bool:
    if binder in mapping:
        return False
    for name, replacement in mapping.items():
        if name in body_free and binder in free_vars(replacement):
            return True
    return False


def _subst_binder(term: Lambda, mapping: dict[str, Term]) -> Lambda:
    inner = {k: v for k, v in mapping.items() if k != term.param}
    if not inner:
        return term
    body_free = free_vars(term.body)
    param = term.param
    body = term.body
    if _needs_rename(param, inner, body_free):
        new_param = fresh_name(param)
        body = substitute(body, {param: Var(new_param)})
        param = new_param
    return Lambda(param, substitute(body, inner))


def _subst_let(term: Let, mapping: dict[str, Term]) -> Let:
    value = substitute(term.value, mapping)
    inner = {k: v for k, v in mapping.items() if k != term.var}
    var_name = term.var
    body = term.body
    if inner and _needs_rename(var_name, inner, free_vars(body)):
        new_var = fresh_name(var_name)
        body = substitute(body, {var_name: Var(new_var)})
        var_name = new_var
    return Let(var_name, value, substitute(body, inner))


def _subst_comprehension(term: Comprehension, mapping: dict[str, Term]) -> Comprehension:
    # Bound generator variables that collide with free variables of the
    # substituted terms are renamed *first*; the substitution is applied to
    # the renamed term (fresh names cannot be captured or re-substituted).
    current = dict(mapping)
    quals: list[Qualifier] = []
    renames: dict[str, Term] = {}
    replacement_free: frozenset[str] = frozenset()
    for replacement in mapping.values():
        replacement_free |= free_vars(replacement)

    def apply(sub: Term) -> Term:
        renamed = substitute(sub, renames) if renames else sub
        return substitute(renamed, current) if current else renamed

    for qualifier in term.qualifiers:
        if isinstance(qualifier, Filter):
            quals.append(Filter(apply(qualifier.pred)))
            continue
        domain = apply(qualifier.domain)
        var_name = qualifier.var
        current.pop(var_name, None)
        if var_name in replacement_free and current:
            new_name = fresh_name(var_name)
            renames[var_name] = Var(new_name)
            var_name = new_name
        else:
            renames.pop(var_name, None)
        quals.append(Generator(var_name, domain))
    head = apply(term.head)
    return Comprehension(term.monoid_name, head, tuple(quals))
