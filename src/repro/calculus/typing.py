"""Type inference for the monoid calculus (paper Figure 3, rules T1–T9).

``infer_type`` assigns a :mod:`repro.data.schema` type to every calculus
term given a schema (for extents) and a typing environment σ (for free
variables).  Besides the paper's rules it enforces the monoid
well-formedness order: a generator whose domain is a commutative collection
cannot feed a non-commutative comprehension (see
:func:`repro.calculus.monoids.leq`), and a ``sorted[…]`` fold (ORDER BY)
is a list of its heads' ``v`` whose keys are primitive.
"""

from __future__ import annotations

from typing import Mapping

from repro.calculus.monoids import Monoid, SortedMonoid, leq, monoid as lookup_monoid
from repro.calculus.terms import (
    ARITHMETIC_OPS,
    BOOLEAN_OPS,
    COMPARISON_OPS,
    Apply,
    BinOp,
    Comprehension,
    Const,
    Extent,
    Filter,
    Generator,
    If,
    IsNull,
    Lambda,
    Let,
    Merge,
    Not,
    Null,
    Param,
    Proj,
    RecordCons,
    Singleton,
    Term,
    Var,
    Zero,
)
from repro.data.schema import (
    ANY,
    BOOL,
    FLOAT,
    INT,
    STRING,
    AnyType,
    BoolType,
    CollectionType,
    FloatType,
    FunctionType,
    IntType,
    RecordType,
    Schema,
    StringType,
    Type,
    is_numeric,
    unify,
)
from repro.errors import TypeCheckError

#: Carrier types of the primitive monoids.
_PRIMITIVE_MONOID_TYPES: dict[str, Type] = {
    "sum": FLOAT,
    "prod": FLOAT,
    "max": FLOAT,
    "min": FLOAT,
    "all": BOOL,
    "some": BOOL,
    "avg": FLOAT,
}


class CalculusTypeError(TypeCheckError, TypeError):
    """A term violates the typing rules of Figure 3.

    Both a :class:`~repro.errors.TypeCheckError` (the structured taxonomy)
    and a ``TypeError`` (the historical base, for existing callers).  The
    message names the offending subterm.
    """

    def __init__(self, message: str, term: Term | None = None):
        if term is not None:
            message = f"{message}\n  in term: {term}"
        super().__init__(message)
        self.term = term


def infer_type(
    term: Term,
    schema: Schema | None = None,
    env: Mapping[str, Type] | None = None,
) -> Type:
    """Infer the type of *term* under substitution *env* (rule notation σ ⊢ e : t)."""
    checker = TypeChecker(schema)
    return checker.infer(term, dict(env) if env else {})


#: The types an ORDER BY key may have (ANY: NULL, a parameter).
_KEY_TYPES = (BoolType, IntType, FloatType, StringType, AnyType)


class TypeChecker:
    """Implements the typing rules; one instance per inference run."""

    def __init__(self, schema: Schema | None = None):
        self._schema = schema

    def infer(self, term: Term, env: dict[str, Type]) -> Type:
        if isinstance(term, Var):
            try:
                return env[term.name]  # (T1)
            except KeyError:
                raise CalculusTypeError(f"unbound variable {term.name!r}", term) from None
        if isinstance(term, Const):
            return self._const_type(term)
        if isinstance(term, Null):
            return ANY  # NULL inhabits every type domain
        if isinstance(term, Param):
            # A placeholder's value arrives at bind time; like NULL it may
            # inhabit any type domain at compile time.
            return ANY
        if isinstance(term, Extent):
            if self._schema is not None and self._schema.has_extent(term.name):
                return self._schema.extent_type(term.name)
            return CollectionType("set", ANY)
        if isinstance(term, RecordCons):
            fields = tuple((n, self.infer(e, env)) for n, e in term.fields)
            return RecordType(fields)  # (T3)
        if isinstance(term, Proj):
            return self._infer_proj(term, env)  # (T2)
        if isinstance(term, Lambda):
            inner = dict(env)
            inner[term.param] = ANY
            return FunctionType(ANY, self.infer(term.body, inner))  # (T6)
        if isinstance(term, Apply):
            return self._infer_apply(term, env)  # (T7)
        if isinstance(term, If):
            return self._infer_if(term, env)  # (T5)
        if isinstance(term, Let):
            inner = dict(env)
            inner[term.var] = self.infer(term.value, env)
            return self.infer(term.body, inner)
        if isinstance(term, BinOp):
            return self._infer_binop(term, env)
        if isinstance(term, Not):
            self._expect(term.expr, env, BOOL, "operand of 'not'")
            return BOOL
        if isinstance(term, IsNull):
            self.infer(term.expr, env)
            return BOOL
        if isinstance(term, Zero):
            return self.fold_type(term.monoid, ANY, term)
        if isinstance(term, Singleton):
            element = self.infer(term.expr, env)
            return self.fold_type(term.monoid, element, term)  # (T8)
        if isinstance(term, Merge):
            left = self.infer(term.left, env)
            right = self.infer(term.right, env)
            try:
                return unify(left, right)
            except TypeError as exc:
                raise CalculusTypeError(str(exc), term) from None
        if isinstance(term, Comprehension):
            return self._infer_comprehension(term, env)  # (T9)
        raise CalculusTypeError(f"cannot type {type(term).__name__}", term)

    # -- helpers -------------------------------------------------------------

    def _const_type(self, term: Const) -> Type:
        value = term.value
        if isinstance(value, bool):
            return BOOL
        if isinstance(value, int):
            return INT
        if isinstance(value, float):
            return FLOAT
        if isinstance(value, str):
            return STRING
        raise CalculusTypeError(f"unsupported constant {value!r}", term)

    def _infer_proj(self, term: Proj, env: dict[str, Type]) -> Type:
        base = self.infer(term.expr, env)
        if isinstance(base, AnyType):
            return ANY
        if isinstance(base, RecordType):
            try:
                return base.attribute(term.attr)
            except KeyError as exc:
                raise CalculusTypeError(str(exc), term) from None
        raise CalculusTypeError(
            f"projection .{term.attr} applied to non-record type {base}", term
        )

    def _infer_apply(self, term: Apply, env: dict[str, Type]) -> Type:
        fn_type = self.infer(term.fn, env)
        arg_type = self.infer(term.arg, env)
        if isinstance(fn_type, AnyType):
            return ANY
        if not isinstance(fn_type, FunctionType):
            raise CalculusTypeError(f"applied a non-function of type {fn_type}", term)
        try:
            unify(fn_type.param, arg_type)
        except TypeError as exc:
            raise CalculusTypeError(str(exc), term) from None
        return fn_type.result

    def _infer_if(self, term: If, env: dict[str, Type]) -> Type:
        self._expect(term.cond, env, BOOL, "if condition")
        then_type = self.infer(term.then, env)
        else_type = self.infer(term.orelse, env)
        try:
            return unify(then_type, else_type)
        except TypeError as exc:
            raise CalculusTypeError(f"if branches disagree: {exc}", term) from None

    def _infer_binop(self, term: BinOp, env: dict[str, Type]) -> Type:
        left = self.infer(term.left, env)
        right = self.infer(term.right, env)
        if term.op in ARITHMETIC_OPS:
            if term.op == "+" and (
                isinstance(left, StringType) or isinstance(right, StringType)
            ):
                # ``+`` doubles as string concatenation — but only
                # string + string; string + number is the classic leak
                # this checker exists to reject (T4 hole).
                if isinstance(left, (StringType, AnyType)) and isinstance(
                    right, (StringType, AnyType)
                ):
                    return STRING
                raise CalculusTypeError(
                    f"arithmetic + over incompatible types {left}, {right} "
                    "(string concatenation needs string on both sides)",
                    term,
                )
            if not (is_numeric(left) and is_numeric(right)):
                raise CalculusTypeError(
                    f"arithmetic {term.op} over non-numeric types {left}, {right}",
                    term,
                )
            if term.op == "/":
                return FLOAT
            try:
                return unify(left, right)
            except TypeError as exc:  # pragma: no cover - is_numeric guards this
                raise CalculusTypeError(str(exc), term) from None
        if term.op in COMPARISON_OPS:
            try:
                unify(left, right)
            except TypeError as exc:
                raise CalculusTypeError(
                    f"comparison {term.op} over incompatible types: {exc}", term
                ) from None
            return BOOL
        if term.op in BOOLEAN_OPS:
            for side, side_type in (("left", left), ("right", right)):
                if not isinstance(side_type, (BoolType, AnyType)):
                    raise CalculusTypeError(
                        f"{side} operand of {term.op!r} is {side_type}, not bool",
                        term,
                    )
            return BOOL
        raise CalculusTypeError(f"unknown operator {term.op!r}", term)

    def fold_type(self, monoid: Monoid, head: Type, term: Term) -> Type:
        """The type of a *monoid* fold of *head* values: a primitive's
        carrier, a collection of them — or, of ``sorted[…]``, ``list(T)``
        of ``struct(k0: …, v: T)`` heads whose keys are primitive."""
        if monoid.name in _PRIMITIVE_MONOID_TYPES:
            return _PRIMITIVE_MONOID_TYPES[monoid.name]
        if not isinstance(monoid, SortedMonoid):
            return CollectionType(monoid.name, head)
        if isinstance(head, AnyType):
            return CollectionType("list", ANY)
        names = [f"k{i}" for i in range(len(monoid.descending))] + ["v"]
        fields = dict(head.fields) if isinstance(head, RecordType) else {}
        if sorted(fields) != sorted(names):  # a record type's are by name: k10 < k2
            raise CalculusTypeError(f"head of {monoid.name} is {head}", term)
        for i, key in enumerate(map(fields.get, names[:-1])):
            if not isinstance(key, _KEY_TYPES):
                raise CalculusTypeError(
                    f"ORDER BY key {i + 1} has type {key}; a key must be a "
                    "primitive value",
                    term,
                )
        return CollectionType("list", fields["v"])

    def _infer_comprehension(self, term: Comprehension, env: dict[str, Type]) -> Type:
        outer = term.monoid
        inner_env = dict(env)
        for qualifier in term.qualifiers:
            if isinstance(qualifier, Generator):
                domain = self.infer(qualifier.domain, inner_env)
                if isinstance(domain, AnyType):
                    inner_env[qualifier.var] = ANY
                    continue
                if not isinstance(domain, CollectionType):
                    raise CalculusTypeError(
                        f"generator domain of {qualifier.var!r} has non-collection "
                        f"type {domain}",
                        term,
                    )
                domain_monoid = lookup_monoid(domain.monoid_name)
                if not leq(domain_monoid, outer):
                    raise CalculusTypeError(
                        f"ill-formed comprehension: {domain.monoid_name} generator "
                        f"cannot feed non-commutative monoid {outer.name}",
                        term,
                    )
                inner_env[qualifier.var] = domain.element
            else:
                assert isinstance(qualifier, Filter)
                self._expect(qualifier.pred, inner_env, BOOL, "filter predicate")
        head = self.infer(term.head, inner_env)
        if outer.name in _PRIMITIVE_MONOID_TYPES:
            expected = _PRIMITIVE_MONOID_TYPES[outer.name]
            if isinstance(expected, BoolType):
                if not isinstance(head, (BoolType, AnyType)):
                    raise CalculusTypeError(
                        f"head of {outer.name} comprehension is {head}, not bool",
                        term,
                    )
                return BOOL
            if not is_numeric(head):
                raise CalculusTypeError(
                    f"head of {outer.name} comprehension is {head}, not numeric",
                    term,
                )
            return expected
        return self.fold_type(outer, head, term)

    def _expect(self, term: Term, env: dict[str, Type], expected: Type, what: str) -> None:
        actual = self.infer(term, env)
        if isinstance(actual, AnyType) or actual == expected:
            return
        raise CalculusTypeError(f"{what} has type {actual}, expected {expected}", term)
