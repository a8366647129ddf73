"""Translation of OQL into the monoid comprehension calculus.

"Most OQL expressions have a direct translation into the monoid calculus
[13]" — this module implements that translation for the subset the paper's
examples use:

* ``select distinct`` → a set comprehension; plain ``select`` → a bag
  comprehension;
* ``exists v in e: p`` → ``some{ p | v <- e }``; ``for all v in e: p`` →
  ``all{ p | v <- e }``; ``x in e`` → ``some{ x = el | el <- e }``;
* the aggregates ``count/sum/avg/max/min`` → comprehensions over the
  corresponding primitive monoid;
* ``group by`` (the Section 5 example) → the *implicitly nested* calculus
  form the paper shows: one inner aggregate comprehension per aggregated
  item, correlated on equality of the grouping expressions;
* a query's ``order by k1, k2 desc`` → ``sorted[+-]{ struct(k0: k1, k1:
  k2, v: e) | q̄ }`` of its unordered ``⊕{ e | q̄ }``, a fold of the
  ``sorted`` list monoid (:class:`repro.calculus.monoids.SortedMonoid`).

Free identifiers resolve to range variables when bound, otherwise to class
extents (checked against the schema when one is supplied).
"""

from __future__ import annotations

import dataclasses

from repro.calculus import terms as t
from repro.calculus.monoids import sorted_monoid
from repro.data.schema import CollectionType, RecordType, Schema, Type
from repro.errors import PlanningError, UnknownExtentError
from repro.oql import ast
from repro.oql.parser import parse

#: Aggregate function name → calculus monoid name.
_AGGREGATE_MONOIDS = {
    "count": "sum",
    "sum": "sum",
    "avg": "avg",
    "max": "max",
    "min": "min",
}


class TranslationError(PlanningError):
    """The OQL query uses a construct outside the supported subset."""


def translate(
    node: ast.Node,
    schema: Schema | None = None,
    views: dict[str, ast.Node] | None = None,
) -> t.Term:
    """Translate an OQL AST into a calculus term.

    *views* maps names (from ``define name as query``) to their query ASTs;
    a view reference is inlined at translation time, so normalization and
    unnesting see through it.
    """
    translator = _Translator(schema, views)
    if isinstance(node, ast.Select) and node.order_by:  # the one sortable select
        return translator._ordered(node, frozenset())
    return translator.translate(node, frozenset())


def parse_and_translate(
    source: str,
    schema: Schema | None = None,
    views: dict[str, ast.Node] | None = None,
) -> t.Term:
    """Parse OQL text and translate it into the calculus in one step."""
    return translate(parse(source), schema, views)


class _Translator:
    def __init__(
        self,
        schema: Schema | None,
        views: dict[str, ast.Node] | None = None,
    ):
        self._schema = schema
        self._views = views or {}
        self._counter = 0
        #: The schema's type of each range variable in scope that has one.
        self._types: dict[str, Type] = {}

    def _fresh(self, hint: str) -> str:
        self._counter += 1
        return f"_{hint}{self._counter}"

    # -- dispatch ----------------------------------------------------------

    def translate(self, node: ast.Node, scope: frozenset[str]) -> t.Term:
        if isinstance(node, ast.Literal):
            return self._literal(node)
        if isinstance(node, ast.Parameter):
            return t.Param(node.name)
        if isinstance(node, ast.Name):
            return self._name(node, scope)
        if isinstance(node, ast.Path):
            return t.Proj(self.translate(node.base, scope), node.attr)
        if isinstance(node, ast.UnaryOp):
            return self._unary(node, scope)
        if isinstance(node, ast.BinaryOp):
            return t.BinOp(
                node.op,
                self.translate(node.left, scope),
                self.translate(node.right, scope),
            )
        if isinstance(node, ast.InCollection):
            return self._membership(node, scope)
        if isinstance(node, ast.Struct):
            fields = tuple(
                (name, self.translate(expr, scope)) for name, expr in node.fields
            )
            return t.RecordCons(fields)
        if isinstance(node, ast.Aggregate):
            return self._aggregate(node, scope)
        if isinstance(node, ast.Flatten):
            return self._flatten(node, scope)
        if isinstance(node, ast.Exists):
            return self._quantifier("some", node.var, node.domain, node.predicate, scope)
        if isinstance(node, ast.ForAll):
            return self._quantifier("all", node.var, node.domain, node.predicate, scope)
        if isinstance(node, ast.Select):
            types = self._types.copy()
            term = self._select(node, scope)
            self._types = types
            return term
        if isinstance(node, ast.SetOp):
            return self._set_op(node, scope)
        raise TranslationError(f"unsupported OQL construct {type(node).__name__}")

    # -- leaves ---------------------------------------------------------------

    def _literal(self, node: ast.Literal) -> t.Term:
        if node.value is None:
            return t.Null()
        return t.Const(node.value)

    def _name(self, node: ast.Name, scope: frozenset[str]) -> t.Term:
        if node.name in scope:
            return t.Var(node.name)
        if node.name in self._views:
            # Views are closed queries; inline the definition.
            return self.translate(self._views[node.name], frozenset())
        # A schema with no registered extents cannot adjudicate names —
        # treat unbound names as extents (permissive mode).
        if (
            self._schema is not None
            and self._schema.extent_names()
            and not self._schema.has_extent(node.name)
        ):
            raise UnknownExtentError(
                f"unknown name {node.name!r}: not a range variable in scope "
                f"({sorted(scope)}) and not an extent "
                f"({list(self._schema.extent_names())})"
            )
        return t.Extent(node.name)

    def _unary(self, node: ast.UnaryOp, scope: frozenset[str]) -> t.Term:
        operand = self.translate(node.operand, scope)
        if node.op == "not":
            return t.Not(operand)
        if node.op == "-":
            return t.BinOp("-", t.Const(0), operand)
        raise TranslationError(f"unknown unary operator {node.op!r}")

    # -- predicates -------------------------------------------------------------

    def _membership(self, node: ast.InCollection, scope: frozenset[str]) -> t.Term:
        element = self.translate(node.element, scope)
        collection = self.translate(node.collection, scope)
        var = self._fresh("el")
        return t.Comprehension(
            "some",
            t.BinOp("==", element, t.Var(var)),
            (t.Generator(var, collection),),
        )

    def _flatten(self, node: ast.Flatten, scope: frozenset[str]) -> t.Term:
        """flatten(e) = { x | s <- e, x <- s } (a set flatten; duplicate
        semantics across bag-of-bag inputs follow the set monoid)."""
        argument = self.translate(node.argument, scope)
        outer_var = self._fresh("fs")
        inner_var = self._fresh("fx")
        return t.Comprehension(
            "set",
            t.Var(inner_var),
            (
                t.Generator(outer_var, argument),
                t.Generator(inner_var, t.Var(outer_var)),
            ),
        )

    def _quantifier(
        self,
        monoid_name: str,
        var: str,
        domain: ast.Node,
        predicate: ast.Node,
        scope: frozenset[str],
    ) -> t.Term:
        domain_term = self.translate(domain, scope)
        types = self._types.copy()
        self._bind(var, domain_term)
        body = self.translate(predicate, scope | {var})
        self._types = types
        return t.Comprehension(monoid_name, body, (t.Generator(var, domain_term),))

    def _set_op(self, node: ast.SetOp, scope: frozenset[str]) -> t.Term:
        """union / except / intersect with set (distinct) semantics.

        union      → {x | x <- L} U {x | x <- R}
        except     → {x | x <- L, not some{x = y | y <- R}}
        intersect  → {x | x <- L, some{x = y | y <- R}}
        """
        left = self.translate(node.left, scope)
        right = self.translate(node.right, scope)
        x = self._fresh("sx")
        if node.op == "union":
            return t.Merge(
                "set",
                t.Comprehension("set", t.Var(x), (t.Generator(x, left),)),
                t.Comprehension("set", t.Var(x), (t.Generator(x, right),)),
            )
        y = self._fresh("sy")
        membership = t.Comprehension(
            "some",
            t.BinOp("==", t.Var(x), t.Var(y)),
            (t.Generator(y, right),),
        )
        pred: t.Term = membership if node.op == "intersect" else t.Not(membership)
        return t.Comprehension(
            "set", t.Var(x), (t.Generator(x, left), t.Filter(pred))
        )

    # -- aggregates --------------------------------------------------------------

    def _aggregate(self, node: ast.Aggregate, scope: frozenset[str]) -> t.Term:
        monoid_name = _AGGREGATE_MONOIDS[node.function]
        argument = self.translate(node.argument, scope)
        return self._aggregate_term(node.function, monoid_name, argument)

    def _aggregate_term(
        self, function: str, monoid_name: str, argument: t.Term
    ) -> t.Term:
        fuse = isinstance(argument, t.Comprehension) and argument.monoid.is_collection
        if fuse and argument.monoid_name == "set" and monoid_name not in ("max", "min"):
            fuse = self._repeat_free(argument)  # else the set's dedup must stay
        if fuse:
            # Fuse: sum(select e.x from ...) = sum{ e.x | ... }.
            head = t.Const(1) if function == "count" else argument.head
            return t.Comprehension(monoid_name, head, argument.qualifiers)
        var = self._fresh("ag")
        head = t.Const(1) if function == "count" else t.Var(var)
        return t.Comprehension(monoid_name, head, (t.Generator(var, argument),))

    def _repeat_free(self, comp: t.Comprehension) -> bool:
        """``set{ x | x <- e.attr, filters }`` over an attribute the schema
        types as a set (paper QUERY D's ``c <- e.children``): no repeat to
        drop.  An extent is not taken for a set: a bag extent may hold one
        object twice."""
        generators = [q for q in comp.qualifiers if isinstance(q, t.Generator)]
        if len(generators) != 1 or comp.head != t.Var(generators[0].var):
            return False
        domain = generators[0].domain
        kind = self._schema_type(domain) if isinstance(domain, t.Proj) else None
        return isinstance(kind, CollectionType) and kind.monoid_name == "set"

    def _schema_type(self, term: t.Term) -> Type | None:
        """The schema's type of an extent, a range variable over one, or an
        attribute path from either; None for any other term."""
        if isinstance(term, t.Extent):
            if self._schema is not None and self._schema.has_extent(term.name):
                return self._schema.extent_type(term.name)
        elif isinstance(term, t.Var):
            return self._types.get(term.name)
        elif isinstance(term, t.Proj):
            record = self._schema_type(term.expr)
            if isinstance(record, RecordType) and record.has_attribute(term.attr):
                return record.attribute(term.attr)
        return None

    def _bind(self, var: str, domain: t.Term) -> None:
        """Enter range variable *var* over *domain* into :attr:`_types`."""
        collection = self._schema_type(domain)
        if isinstance(collection, CollectionType):
            self._types[var] = collection.element
        else:
            self._types.pop(var, None)

    # -- select blocks -------------------------------------------------------------

    def _select(self, node: ast.Select, scope: frozenset[str]) -> t.Term:
        if node.order_by:  # a root select's is translate()'s
            raise TranslationError(
                "ORDER BY sorts a query's result into a list; it is "
                "only supported at the top level of a query"
            )
        inner_scope = scope
        qualifiers: list[t.Qualifier] = []
        for clause in node.from_clauses:
            domain = self.translate(clause.domain, inner_scope)
            qualifiers.append(t.Generator(clause.var, domain))
            self._bind(clause.var, domain)
            inner_scope |= {clause.var}
        if node.group_by:
            return self._grouped_select(node, qualifiers, inner_scope)
        if node.having is not None:
            raise TranslationError("HAVING requires GROUP BY")
        if node.where is not None:
            qualifiers.append(t.Filter(self.translate(node.where, inner_scope)))
        head = self._projection(node.items, inner_scope)
        monoid_name = "set" if node.distinct else "bag"
        return t.Comprehension(monoid_name, head, tuple(qualifiers))

    def _ordered(self, node: ast.Select, scope: frozenset[str]) -> t.Term:
        """``sorted[d…]{ struct(k0: key0, …, v: e) | q̄ }`` of the select
        ``bag{ e | q̄ }`` unordered: the normal form of ``sorted[d…]{
        struct(…, v: x) | x <- bag{ e | q̄ } }``, so every path, the calculus
        reference among them, folds the select's own stream (a bag value
        would enumerate its equal elements together).  A set (``select
        distinct``, a ``group by``) sorts ``x <- set{ e | q̄ }``, which stays
        nested.  A key reads the element as ``value`` and each of its fields
        by its projection alias, or — one unaliased item being the element
        itself — the element by that item's name."""
        unordered = self._select(dataclasses.replace(node, order_by=()), scope)
        element, qualifiers = unordered.head, unordered.qualifiers
        if unordered.monoid_name == "set":  # distinct, or grouped
            element = t.Var(self._fresh("x"))
            qualifiers = (t.Generator(element.name, unordered),)
        aliases = {self._item_name(item, i) for i, item in enumerate(node.items)}
        bare = len(node.items) == 1 and node.items[0].alias is None
        env: dict[str, t.Term] = {"value": element}
        env.update((alias, element if bare else t.Proj(element, alias)) for alias in aliases)
        keys = frozenset(env)
        fields = tuple(
            (f"k{i}", t.substitute(self.translate(item.expr, keys), env))
            for i, item in enumerate(node.order_by)
        )
        directions = "".join("+" if item.ascending else "-" for item in node.order_by)
        return t.Comprehension(
            sorted_monoid(directions).name,
            t.RecordCons(fields + (("v", element),)),
            qualifiers,
        )

    def _projection(
        self, items: tuple[ast.SelectItem, ...], scope: frozenset[str]
    ) -> t.Term:
        if len(items) == 1 and items[0].alias is None:
            return self.translate(items[0].expr, scope)
        fields = []
        for index, item in enumerate(items):
            fields.append((self._item_name(item, index), self.translate(item.expr, scope)))
        return t.RecordCons(tuple(fields))

    def _item_name(self, item: ast.SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.Path):
            return item.expr.attr
        if isinstance(item.expr, ast.Name):
            return item.expr.name
        if isinstance(item.expr, ast.Aggregate):
            return item.expr.function
        return f"col{index + 1}"

    # -- group by (Section 5) -----------------------------------------------------

    def _grouped_select(
        self,
        node: ast.Select,
        qualifiers: list[t.Qualifier],
        scope: frozenset[str],
    ) -> t.Term:
        """Translate GROUP BY into the paper's implicitly nested form.

        Each aggregated item becomes an inner comprehension that re-ranges
        over *renamed copies* of all the generators, re-applies the WHERE
        predicate, and correlates on equality of every grouping expression —
        exactly the calculus term of the Section 5 example.
        """
        generators = [q for q in qualifiers if isinstance(q, t.Generator)]
        where_term = (
            self.translate(node.where, scope) if node.where is not None else None
        )
        group_exprs = [self.translate(expr, scope) for expr in node.group_by]

        renaming: dict[str, t.Term] = {}
        inner_quals: list[t.Qualifier] = []
        for gen in generators:
            copy_var = self._fresh(gen.var.lstrip("_") or "g")
            domain = t.substitute(gen.domain, renaming)
            renaming[gen.var] = t.Var(copy_var)
            inner_quals.append(t.Generator(copy_var, domain))
        if where_term is not None:
            inner_quals.append(t.Filter(t.substitute(where_term, renaming)))
        for expr in group_exprs:
            inner_quals.append(
                t.Filter(t.BinOp("==", expr, t.substitute(expr, renaming)))
            )

        def aggregate_to_inner(term: t.Term) -> t.Term:
            """Rewrite aggregate placeholders into correlated comprehensions."""
            if not isinstance(term, _AggregateMarker):
                return term
            head = (
                t.Const(1)
                if term.function == "count"
                else t.substitute(term.argument, renaming)
            )
            return t.Comprehension(
                _AGGREGATE_MONOIDS[term.function], head, tuple(inner_quals)
            )

        fields = []
        for index, item in enumerate(node.items):
            marked = self._mark_aggregates(item.expr, scope)
            fields.append(
                (self._item_name(item, index), t.transform(marked, aggregate_to_inner))
            )
        head: t.Term
        if len(fields) == 1 and node.items[0].alias is None:
            head = fields[0][1]
        else:
            head = t.RecordCons(tuple(fields))

        outer_quals = list(qualifiers)
        preds: list[t.Term] = []
        if where_term is not None:
            preds.append(where_term)
        if node.having is not None:
            having = self._mark_aggregates(node.having, scope)
            preds.append(t.transform(having, aggregate_to_inner))
        if preds:
            outer_quals.append(t.Filter(t.conj(*preds)))
        # One result per group: grouped queries deduplicate (SQL semantics),
        # so the accumulator is the set monoid regardless of DISTINCT.
        return t.Comprehension("set", head, tuple(outer_quals))

    def _mark_aggregates(self, node: ast.Node, scope: frozenset[str]) -> t.Term:
        """Translate *node*, replacing aggregate calls by markers.

        The markers are resolved into correlated inner comprehensions by the
        caller once the renamed generator copies are known.
        """
        if isinstance(node, ast.Aggregate):
            if isinstance(node.argument, ast.Select):
                # A nested aggregate-of-subquery inside a grouped projection
                # is a plain aggregate, not a grouped one.
                return self._aggregate(node, scope)
            return _AggregateMarker(
                node.function, self.translate(node.argument, scope)
            )
        if isinstance(node, ast.BinaryOp):
            return t.BinOp(
                node.op,
                self._mark_aggregates(node.left, scope),
                self._mark_aggregates(node.right, scope),
            )
        if isinstance(node, ast.UnaryOp) and node.op == "not":
            return t.Not(self._mark_aggregates(node.operand, scope))
        return self.translate(node, scope)


class _AggregateMarker(t.Term):
    """Internal placeholder for an aggregate inside a grouped projection."""

    __slots__ = ("function", "argument")

    def __init__(self, function: str, argument: t.Term):
        self.function = function
        self.argument = argument

    def children(self) -> tuple[t.Term, ...]:
        # A leaf for traversal purposes: generic transforms must not rebuild
        # this internal node, only the marker-resolution pass replaces it.
        return ()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _AggregateMarker)
            and self.function == other.function
            and self.argument == other.argument
        )

    def __hash__(self) -> int:
        return hash(("_AggregateMarker", self.function, self.argument))
