"""Monoids — the algebraic backbone of the comprehension calculus.

Section 2 of the paper: a monoid of type T is a pair (⊕, Z⊕) of an
associative accumulator ⊕ : T × T → T and a zero element Z⊕ that is a left
and right identity of ⊕.  Collection monoids (set, bag, list) additionally
carry a *unit* function that lifts an element into a singleton collection.
Primitive monoids (sum, prod, max, min, all, some) construct values of a
primitive type.

The properties *commutative* and *idempotent* drive both the normalization
algorithm (rule N7/N8 side conditions) and the semantics of comprehensions
over mixed monoids (rule D7's duplicate guard).

ORDER BY is a fold too, of the ``sorted[…]`` family (:class:`SortedMonoid`).

A comprehension's value is its monoid's fold of its heads: the engine keeps
the heads as a list and :func:`folder` alone says how it becomes the value,
checked against the evaluators' ``merge``/``lift`` fold.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import itemgetter
from typing import Any, Callable

from repro.data.values import NULL, BagValue, ListValue, SetValue


def _identity(value: Any) -> Any:
    return value


@dataclass(frozen=True)
class Monoid:
    """A primitive monoid (⊕, zero) with its algebraic properties.

    ``merge`` must be associative; ``zero`` its two-sided identity.

    ``lift``/``finalize`` support accumulators that are monoids only on an
    internal carrier: ``avg`` accumulates (sum, count) pairs — ``lift``
    injects each contribution into the carrier and ``finalize`` maps the
    merged carrier back to the user-visible value.  For true monoids both
    are the identity.
    """

    name: str
    zero: Any
    merge: Callable[[Any, Any], Any] = field(compare=False)
    commutative: bool = True
    idempotent: bool = False
    lift: Callable[[Any], Any] = field(compare=False, default=_identity)
    finalize: Callable[[Any], Any] = field(compare=False, default=_identity)
    #: A primitive's fold, ``loop(carrier, values)``, in order, its merge
    #: inline (``all``/``some`` stop at the deciding value).  A NULL cannot
    #: be summed or conjoined, so it is skipped (merging the zero); it equals
    #: the ``merge(carrier, lift(v))`` fold, so a float sum is the same bits.
    loop: Callable[[Any, Iterable[Any]], Any] = field(compare=False, default=None)  # type: ignore[assignment]

    @property
    def is_collection(self) -> bool:
        return isinstance(self, CollectionMonoid)

    @property
    def has_carrier(self) -> bool:  # avg's (sum, count): finalize it
        return self.finalize is not _identity

    def fold(self, values: Any) -> Any:
        """Merge an iterable of values, starting from the zero element."""
        result = self.zero
        for value in values:
            result = self.merge(result, value)
        return result

    @property
    def symbol(self) -> str:  # in the plan printers (paper notation)
        return MONOID_SYMBOLS.get(self.name, self.name)

    def __repr__(self) -> str:
        return self.name


def _sum_loop(total: Any, values: Iterable[Any]) -> Any:
    for value in values:
        if value is not NULL:
            total = total + value
    return total


def _prod_loop(product: Any, values: Iterable[Any]) -> Any:
    for value in values:
        if value is not NULL:
            product = product * value
    return product


def _max_loop(best: Any, values: Iterable[Any]) -> Any:
    for value in values:
        if value is not NULL and not best >= value:
            best = value
    return best


def _min_loop(best: Any, values: Iterable[Any]) -> Any:
    for value in values:
        if value is not NULL and not best <= value:
            best = value
    return best


def _all_loop(carrier: Any, values: Iterable[Any]) -> Any:
    for value in values:
        if value is not NULL and (carrier := carrier and value) is False:
            break
    return carrier


def _some_loop(carrier: Any, values: Iterable[Any]) -> Any:
    for value in values:
        if value is not NULL and (carrier := carrier or value) is True:
            break
    return carrier


def _avg_loop(carrier: tuple[Any, int], values: Iterable[Any]) -> tuple[Any, int]:
    total, count = carrier
    for value in values:
        if value is not NULL:
            total = total + value
            count = count + 1
    return total, count


@dataclass(frozen=True)
class CollectionMonoid(Monoid):
    """A collection monoid: additionally knows how to build singletons."""

    unit: Callable[[Any], Any] = field(compare=False, default=None)  # type: ignore[assignment]
    #: Bulk constructor: build the collection from an iterable of elements
    #: in one pass.  Must equal folding singleton units (it is the same
    #: constructor the unit uses), but is O(n) where the fold's repeated
    #: immutable merges are O(n²) — the engine's accumulation loops
    #: (PReduce, PHashNest) go through this.
    from_elements: Callable[[Any], Any] = field(compare=False, default=None)  # type: ignore[assignment]

    def fold_elements(self, values: Any) -> Any:
        """Build a collection from an iterable of *elements* (not collections)."""
        if self.from_elements is not None:
            return self.from_elements(values)
        return self.fold(self.unit(v) for v in values)


def _merge_error(name: str, a: Any, b: Any) -> Exception:
    # The evaluator imports this module, so its error class is fetched here.
    from repro.calculus.evaluator import EvaluationError

    return EvaluationError(
        f"{name} merge of {type(a).__name__} and {type(b).__name__}: "
        f"both operands must be {name}s"
    )


def _set_merge(a: SetValue, b: SetValue) -> SetValue:
    if isinstance(a, SetValue) and isinstance(b, SetValue):
        return a.union(b)
    raise _merge_error("set", a, b)


def _bag_merge(a: BagValue, b: BagValue) -> BagValue:
    if isinstance(a, BagValue) and isinstance(b, BagValue):
        return a.additive_union(b)
    raise _merge_error("bag", a, b)


def _list_merge(a: ListValue, b: ListValue) -> ListValue:
    if isinstance(a, ListValue) and isinstance(b, ListValue):
        return a.concat(b)
    raise _merge_error("list", a, b)


SET = CollectionMonoid(
    name="set",
    zero=SetValue(),
    merge=_set_merge,
    commutative=True,
    idempotent=True,
    unit=lambda v: SetValue([v]),
    from_elements=SetValue,
)

BAG = CollectionMonoid(
    name="bag",
    zero=BagValue(),
    merge=_bag_merge,
    commutative=True,
    idempotent=False,
    unit=lambda v: BagValue([v]),
    from_elements=BagValue,
)

LIST = CollectionMonoid(
    name="list",
    zero=ListValue(),
    merge=_list_merge,
    commutative=False,
    idempotent=False,
    unit=lambda v: ListValue([v]),
    from_elements=ListValue,
)

SUM = Monoid(name="sum", zero=0, merge=lambda a, b: a + b, loop=_sum_loop)
PROD = Monoid(name="prod", zero=1, merge=lambda a, b: a * b, loop=_prod_loop)
# The paper uses (max, 0); we use the usual identity-free formulation with a
# floor of 0 to match the paper's (max, 0) monoid on non-negative numbers.
MAX = Monoid("max", 0, lambda a, b: a if a >= b else b, idempotent=True, loop=_max_loop)
MIN = Monoid(
    name="min",
    zero=float("inf"),
    merge=lambda a, b: a if a <= b else b,
    idempotent=True,
    loop=_min_loop,
)
ALL = Monoid("all", True, lambda a, b: a and b, idempotent=True, loop=_all_loop)
SOME = Monoid("some", False, lambda a, b: a or b, idempotent=True, loop=_some_loop)


def _avg_finalize(carrier: tuple[float, int]) -> Any:
    total, count = carrier
    if count == 0:
        return NULL
    return total / count


# avg is the paper's Section 5 accumulator: a monoid on (sum, count) pairs
# finalized by division (NULL on an empty input, like SQL's AVG).
AVG = Monoid(
    name="avg",
    zero=(0.0, 0),
    merge=lambda a, b: (a[0] + b[0], a[1] + b[1]),
    lift=lambda v: (v, 1),
    finalize=_avg_finalize,
    loop=_avg_loop,
)

#: Every monoid known to the calculus, by name.
MONOIDS: dict[str, Monoid] = {
    m.name: m for m in (SET, BAG, LIST, SUM, PROD, MAX, MIN, ALL, SOME, AVG)
}

#: Pretty accumulator symbols used by the plan printers (paper notation).
MONOID_SYMBOLS: dict[str, str] = {
    "set": "U",
    "bag": "U+",
    "list": "++",
    "sum": "+",
    "prod": "*",
    "max": "max",
    "min": "min",
    "all": "&",
    "some": "|",
    "avg": "avg",
}


@dataclass(frozen=True)
class SortedMonoid(CollectionMonoid):
    """``sorted[d0…dn]`` (ORDER BY): folds ``struct(k0: key0, …, v: e)``
    heads into the list of their elements, by ``k0`` first, ascending where
    ``di`` is ``+``; NULL sorts first ascending, last descending.  Its
    carrier is the tuple of rows ``(key0, …, e)`` in order, and ``merge`` is
    stable: tied rows keep the order they were folded in.  Commutative up
    to ties, not idempotent (a ``select distinct`` sorts a set's elements)."""

    descending: tuple[bool, ...] = ()

    def order(self, rows: list) -> list:
        """*rows* in key order: one stable pass per key, the least
        significant first."""
        for i in reversed(range(len(self.descending))):
            key, descending = itemgetter(i), self.descending[i]
            try:  # a NULL among two or more keys fails a comparison
                rows = sorted(rows, key=key, reverse=descending)
            except TypeError:
                nulls = [r for r in rows if r[i] is NULL]
                rows = sorted((r for r in rows if r[i] is not NULL), key=key, reverse=descending)
                rows = rows + nulls if descending else nulls + rows
        return rows


def _rows(heads: Iterable[Any], names: tuple[str, ...]) -> list:
    """Heads as rows: a struct as its values read by the key *names* ``k0…,
    v`` (``k10`` is the eleventh key, whatever order the struct keeps its
    fields in); a row kernel hands over the tuples."""
    read = itemgetter(*names)
    return [h if h.__class__ is tuple else read(h) for h in heads]


def _elements(rows: Iterable[tuple]) -> ListValue:
    return ListValue(map(itemgetter(-1), rows))


@lru_cache(maxsize=None)
def sorted_monoid(directions: str) -> SortedMonoid:
    """``sorted[directions]``: one ``+`` (ascending) or ``-`` (descending)
    per key."""
    name = f"sorted[{directions}]"
    if not directions or set(directions) - {"+", "-"}:
        raise KeyError(f"unknown monoid {name!r}: one + or - per key")
    names = (*(f"k{i}" for i in range(len(directions))), "v")
    found = SortedMonoid(
        name=name,
        zero=(),
        merge=lambda a, b: tuple(found.order([*a, *b])),
        finalize=_elements,
        unit=lambda head: tuple(_rows([head], names)),
        from_elements=lambda heads: _elements(found.order(_rows(heads, names))),
        descending=tuple(d == "-" for d in directions),
    )
    return found


def folder(monoid: Monoid, plain: bool = False) -> Callable:
    """A fold's ``heads → value``: a bag of *plain* heads counts them as
    they are, any other collection is built in one pass, and a primitive is
    its ``loop`` from the zero, finalized only where it has a carrier (avg)."""
    if plain and monoid.name == "bag":
        return BagValue.of_plain
    if isinstance(monoid, CollectionMonoid):
        return monoid.fold_elements
    fold = partial(monoid.loop, monoid.zero)
    if not monoid.has_carrier:
        return fold
    finalize = monoid.finalize
    return lambda heads: finalize(fold(heads))


def monoid(name: str) -> Monoid:
    """Look up a monoid by name, ``MONOIDS`` first, raising a helpful error
    when unknown."""
    found = MONOIDS.get(name)
    if found is not None:
        return found
    family, _, directions = name.partition("[")
    if family == "sorted" and directions.endswith("]"):
        return sorted_monoid(directions[:-1])
    known = ", ".join(sorted(MONOIDS))
    raise KeyError(f"unknown monoid {name!r}; known monoids: {known}, sorted[+-…]")


def leq(inner: Monoid, outer: Monoid) -> bool:
    """The monoid well-formedness order ⊑ of the calculus.

    A comprehension ``⊕{ e | ..., v <- X, ... }`` is well formed when the
    monoid of each generator domain X can be *coerced* into ⊕.  Iterating a
    commutative collection (set, bag) into a non-commutative monoid (list)
    has no deterministic meaning, so that combination is rejected.  An
    idempotent domain feeding a non-idempotent monoid (e.g. summing over a
    set) *is* allowed: rule D7 of the comprehension semantics inserts an
    explicit duplicate-elimination guard for exactly this case, avoiding the
    paper's Section 2 inconsistency example.
    """
    if inner.commutative and not outer.commutative:
        return False
    return True
