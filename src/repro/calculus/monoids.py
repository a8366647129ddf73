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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    @property
    def is_collection(self) -> bool:
        return isinstance(self, CollectionMonoid)

    def fold(self, values: Any) -> Any:
        """Merge an iterable of values, starting from the zero element."""
        result = self.zero
        for value in values:
            result = self.merge(result, value)
        return result

    def __repr__(self) -> str:
        return self.name


def fold_skipping_nulls(monoid: Monoid, carrier: Any, values: Any) -> Any:
    """Continue a primitive fold from *carrier* over *values*, in order.

    The null-to-zero rule: a NULL contributes nothing to a primitive
    accumulator — it cannot be summed or conjoined — so it is skipped, which
    is merging the zero.  Each other value is lifted and merged; the result
    is still a carrier, for the caller to continue or ``finalize``.  The
    engine's group folds go through here so that a float sum comes out the
    same wherever it is folded.
    """
    merge = monoid.merge
    lift = monoid.lift
    for value in values:
        if value is not NULL:
            carrier = merge(carrier, lift(value))
    return carrier


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

SUM = Monoid(name="sum", zero=0, merge=lambda a, b: a + b)
PROD = Monoid(name="prod", zero=1, merge=lambda a, b: a * b)
# The paper uses (max, 0); we use the usual identity-free formulation with a
# floor of 0 to match the paper's (max, 0) monoid on non-negative numbers.
MAX = Monoid(name="max", zero=0, merge=lambda a, b: a if a >= b else b, idempotent=True)
MIN = Monoid(
    name="min",
    zero=float("inf"),
    merge=lambda a, b: a if a <= b else b,
    idempotent=True,
)
ALL = Monoid(name="all", zero=True, merge=lambda a, b: a and b, idempotent=True)
SOME = Monoid(name="some", zero=False, merge=lambda a, b: a or b, idempotent=True)


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


def monoid(name: str) -> Monoid:
    """Look up a monoid by name, raising a helpful error when unknown."""
    try:
        return MONOIDS[name]
    except KeyError:
        known = ", ".join(sorted(MONOIDS))
        raise KeyError(f"unknown monoid {name!r}; known monoids: {known}") from None


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
