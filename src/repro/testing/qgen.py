"""Grammar-driven random OQL query generation.

Given a schema (typically one from :mod:`repro.testing.schemagen`, but any
:class:`~repro.data.schema.Schema` works), :class:`QueryGenerator` emits
random-but-well-typed OQL source strings covering every nesting class the
paper discusses: flat selects and joins, type-N/J nesting (subqueries as
generator domains, membership predicates), type-A/JA nesting (correlated
aggregates, nested selects in the head), universal/existential quantifiers,
group-by with having, set operations, and ``flatten`` — plus prepared-
statement ``:name`` placeholders whose values are returned alongside the
source.

A root select may be ordered — ``order by`` a total key, so that every
path must return the same list: every field of a struct element, or
``value`` for a scalar one, each ascending or descending.

Deliberate restrictions, so that every execution path stays comparable:

* no division except by powers of two, and float literals are multiples of
  0.25 — keeps float arithmetic exact, so bit-identical across paths — but
  for one shape (:meth:`QueryGenerator._faulting_head_query`) whose
  divisor the data can make zero, in the one position where every path
  must then fail alike;
* comparisons only between scalars of the same kind, but for one shape
  (:meth:`QueryGenerator._object_key_query`) that joins and groups on
  stored objects, where equal state must not stand in for identity.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Any

from repro.data.schema import (
    CollectionType,
    FloatType,
    IntType,
    RecordType,
    Schema,
    StringType,
    Type,
)
from repro.data.values import NULL
from repro.testing.schemagen import INT_RANGE, STRING_POOL, GeneratedSchema


@dataclass
class GeneratedQuery:
    """One fuzz sample: OQL source plus its ``:name`` parameter values."""

    source: str
    params: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.source


@dataclass
class QueryGenConfig:
    """Shape/probability knobs for random queries."""

    max_depth: int = 3
    where_probability: float = 0.85
    param_probability: float = 0.2
    null_literal_probability: float = 0.06
    group_by_probability: float = 0.12
    second_generator_probability: float = 0.45
    distinct_probability: float = 0.65


#: The share of root selects with a total key that sort their result.
_ORDER_BY_PROBABILITY = 0.5

_NUMERIC = ("int", "float")


def _kind_of(attr_type: Type) -> str | None:
    if isinstance(attr_type, IntType):
        return "int"
    if isinstance(attr_type, FloatType):
        return "float"
    if isinstance(attr_type, StringType):
        return "string"
    return None


class QueryGenerator:
    """Seeded random OQL generator over a fixed schema.

    >>> import random
    >>> from repro.testing.schemagen import random_database
    >>> db, generated = random_database(3)
    >>> gen = QueryGenerator(generated, random.Random(3))
    >>> query = gen.query()
    >>> isinstance(query.source, str) and len(query.source) > 0
    True
    """

    def __init__(
        self,
        schema: GeneratedSchema | Schema,
        rng: random.Random,
        config: QueryGenConfig | None = None,
    ):
        if isinstance(schema, GeneratedSchema):
            self.schema = schema.schema
        else:
            self.schema = schema
        self.rng = rng
        self.config = config or QueryGenConfig()
        self._var_counter = 0
        self._params: dict[str, Any] = {}

    # -- public entry point -------------------------------------------------

    def query(self) -> GeneratedQuery:
        """Generate one top-level query (fresh variable/parameter names)."""
        self._var_counter = 0
        self._params = {}
        roll = self.rng.random()
        depth = self.config.max_depth
        if roll < 0.08:
            source = self._scalar_collection_query(depth)
        elif roll < 0.44:
            source = self._select_query([], depth, ordered=True)
        elif roll < 0.50:
            source = self._object_key_query(depth)
        elif roll < 0.54:
            source = self._sibling_path_query(depth)
        elif roll < 0.60:
            source = self._value_correlated_query(depth)
        elif roll < 0.62:
            source = self._faulting_head_query(depth)
        elif roll < 0.75:
            source = self._top_aggregate(depth)
        elif roll < 0.90:
            source = self._top_boolean(depth)
        else:
            source = self._set_operation(depth)
        # Generation backtracks (e.g. a drafted domain that a group-by shape
        # replaces), so only keep parameters the final text references.
        used = set(re.findall(r":(q\d+)", source))
        return GeneratedQuery(
            source, {k: v for k, v in self._params.items() if k in used}
        )

    # -- schema helpers -----------------------------------------------------

    def _extents(self) -> list[tuple[str, RecordType]]:
        return [
            (name, self.schema.class_type(self.schema.extents[name]))
            for name in self.schema.extent_names()
        ]

    def _fresh_var(self) -> str:
        name = f"v{self._var_counter}"
        self._var_counter += 1
        return name

    def _scalar_attrs(
        self, record_type: RecordType, kinds: tuple[str, ...] | None = None
    ) -> list[tuple[str, str]]:
        """(attr, kind) pairs for the record's scalar attributes."""
        out = []
        for attr, attr_type in record_type.fields:
            kind = _kind_of(attr_type)
            if kind is not None and (kinds is None or kind in kinds):
                out.append((attr, kind))
        return out

    def _collection_attrs(
        self, record_type: RecordType
    ) -> list[tuple[str, CollectionType]]:
        return [
            (attr, attr_type)
            for attr, attr_type in record_type.fields
            if isinstance(attr_type, CollectionType)
        ]

    # -- literals and parameters --------------------------------------------

    def _literal_value(self, kind: str) -> Any:
        if kind == "int":
            return self.rng.randint(0, INT_RANGE)
        if kind == "float":
            return self.rng.randint(0, 4 * INT_RANGE) * 0.25
        return self.rng.choice(STRING_POOL)

    def _literal(self, kind: str, allow_null: bool = True) -> str:
        """Render a literal of *kind*; sometimes as a ``:qN`` parameter,
        occasionally as ``nil`` or a NULL-valued parameter."""
        rng = self.rng
        if allow_null and rng.random() < self.config.null_literal_probability:
            if rng.random() < 0.5:
                return "nil"
            name = f"q{len(self._params)}"
            self._params[name] = NULL
            return f":{name}"
        value = self._literal_value(kind)
        if rng.random() < self.config.param_probability:
            name = f"q{len(self._params)}"
            self._params[name] = value
            return f":{name}"
        if kind == "string":
            return f'"{value}"'
        return repr(value)

    # -- scalar expressions -------------------------------------------------

    def _paths_of_kind(
        self, env: list[tuple[str, RecordType]], kinds: tuple[str, ...]
    ) -> list[tuple[str, str]]:
        """All in-scope ``var.attr`` paths whose attribute kind is in *kinds*."""
        paths = []
        for var, record_type in env:
            for attr, kind in self._scalar_attrs(record_type, kinds):
                paths.append((f"{var}.{attr}", kind))
        return paths

    def _scalar_expr(
        self, env: list[tuple[str, RecordType]], kind: str, depth: int
    ) -> str:
        """A scalar expression of *kind* over the in-scope variables."""
        rng = self.rng
        paths = self._paths_of_kind(env, (kind,))
        if kind in _NUMERIC and paths and rng.random() < 0.25:
            base, _ = rng.choice(paths)
            op = rng.choice(("+", "-", "*", "/", "%"))
            if op == "/":
                return f"{base} / {rng.choice((2, 4))}"
            if op == "%":
                return f"{base} % {rng.choice((3, 7))}"
            if op == "*":
                return f"{base} * {rng.choice((2, 3))}"
            return f"{base} {op} {self.rng.randint(0, INT_RANGE)}"
        if kind in _NUMERIC and depth > 0 and rng.random() < 0.15:
            aggregate = self._aggregate_subquery(env, kind, depth - 1)
            if aggregate is not None:
                return aggregate
        if paths and rng.random() < 0.8:
            return rng.choice(paths)[0]
        return self._literal(kind, allow_null=False)

    def _aggregate_subquery(
        self, env: list[tuple[str, RecordType]], kind: str, depth: int
    ) -> str | None:
        """``sum/avg/max/min/count( select ... )`` yielding a numeric."""
        rng = self.rng
        if rng.random() < 0.4:
            subquery = self._select_query(env, min(depth, 1), force_plain=True)
            return f"count( {subquery} )"
        function = rng.choice(("sum", "max", "min", "avg"))
        subquery = self._scalar_subquery(env, ("int", "float"), depth)
        if subquery is None:
            return None
        return f"{function}( {subquery} )"

    # -- collections usable as generator domains ----------------------------

    def _domains(
        self, env: list[tuple[str, RecordType]], depth: int
    ) -> list[tuple[str, RecordType]]:
        """(domain text, element record type) candidates for a generator."""
        choices: list[tuple[str, RecordType]] = list(self._extents())
        for var, record_type in env:
            for attr, coll_type in self._collection_attrs(record_type):
                if isinstance(coll_type.element, RecordType):
                    choices.append((f"{var}.{attr}", coll_type.element))
        return choices

    def _pick_domain(
        self, env: list[tuple[str, RecordType]], depth: int
    ) -> tuple[str, RecordType]:
        rng = self.rng
        choices = self._domains(env, depth)
        domain, element = rng.choice(choices)
        # Occasionally wrap an extent in a subquery (type-N nesting) or a
        # flatten of a nested collection.
        if depth > 0 and rng.random() < 0.2:
            var = self._fresh_var()
            inner_env = env + [(var, element)]
            where = ""
            if rng.random() < 0.7:
                where = f" where {self._predicate(inner_env, depth - 1)}"
            return (f"( select {var} from {var} in {domain}{where} )", element)
        if depth > 0 and rng.random() < 0.1:
            # flatten( select v.kids from v in X )
            extents = list(self._extents())
            rng.shuffle(extents)
            for extent, record_type in extents:
                nested = self._collection_attrs(record_type)
                nested = [
                    (attr, coll)
                    for attr, coll in nested
                    if isinstance(coll.element, RecordType)
                ]
                if nested:
                    attr, coll = rng.choice(nested)
                    var = self._fresh_var()
                    return (
                        f"flatten( select {var}.{attr} from {var} in {extent} )",
                        coll.element,
                    )
        return domain, element

    # -- predicates ---------------------------------------------------------

    def _predicate(self, env: list[tuple[str, RecordType]], depth: int) -> str:
        rng = self.rng
        atoms = [self._atom(env, depth)]
        while len(atoms) < 3 and rng.random() < 0.3:
            atoms.append(self._atom(env, depth))
        text = atoms[0]
        for atom in atoms[1:]:
            text = f"({text} {rng.choice(('and', 'or'))} {atom})"
        if rng.random() < 0.12:
            text = f"not ({text})"
        return text

    def _atom(self, env: list[tuple[str, RecordType]], depth: int) -> str:
        rng = self.rng
        roll = rng.random()
        if depth <= 0 or roll < 0.45:
            return self._comparison(env)
        if roll < 0.60:
            return self._membership(env, depth - 1)
        if roll < 0.80:
            return self._quantifier(env, depth - 1)
        if roll < 0.90:
            return self._count_comparison(env, depth - 1)
        subquery = self._select_query(env, min(depth - 1, 1), force_plain=True)
        return f"exists( {subquery} )"

    def _comparison(self, env: list[tuple[str, RecordType]]) -> str:
        rng = self.rng
        kind = rng.choice(("int", "int", "float", "string"))
        paths = self._paths_of_kind(env, (kind,))
        if not paths:
            kind = "int"
            paths = self._paths_of_kind(env, (kind,))
        if not paths:
            return "true"
        left, _ = rng.choice(paths)
        if kind == "string":
            op = rng.choice(("=", "!=", "=", "<"))
        else:
            op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
        # Compare against another path (a join-key shape) or a literal.
        if len(paths) > 1 and rng.random() < 0.45:
            right = rng.choice([p for p, _ in paths if p != left] or [left])
            return f"{left} {op} {right}"
        return f"{left} {op} {self._literal(kind)}"

    def _membership(self, env: list[tuple[str, RecordType]], depth: int) -> str:
        rng = self.rng
        paths = self._paths_of_kind(env, ("int", "string"))
        if not paths:
            return self._comparison(env)
        path, kind = rng.choice(paths)
        subquery = self._scalar_subquery(env, (kind,), depth)
        if subquery is None:
            return self._comparison(env)
        text = f"{path} in ( {subquery} )"
        # ``not in``: a universal quantifier whose body is the key test.
        return f"not ({text})" if rng.random() < 0.35 else text

    def _quantifier(self, env: list[tuple[str, RecordType]], depth: int) -> str:
        rng = self.rng
        domain, element = self._pick_domain(env, depth)
        var = self._fresh_var()
        inner_env = env + [(var, element)]
        body = (
            self._comparison(inner_env)
            if depth <= 0 or rng.random() < 0.7
            else self._predicate(inner_env, depth - 1)
        )
        keyword = rng.choice(("exists", "for all"))
        if keyword == "for all" and env and rng.random() < 0.35:
            # "every element with the outer row's key satisfies the body":
            # negated into the filter, the key test becomes a join key.
            own = self._paths_of_kind([(var, element)], ("int", "string"))
            rng.shuffle(own)
            for inner, kind in own:
                outer = self._paths_of_kind(env, (kind,))
                if outer:
                    body = f"({inner} != {rng.choice(outer)[0]} or {body})"
                    break
        return f"{keyword} {var} in {domain}: {body}"

    def _count_comparison(
        self, env: list[tuple[str, RecordType]], depth: int
    ) -> str:
        subquery = self._select_query(env, min(depth, 1), force_plain=True)
        op = self.rng.choice(("=", ">=", "<=", ">", "<"))
        return f"count( {subquery} ) {op} {self.rng.randint(0, 3)}"

    # -- subqueries ---------------------------------------------------------

    def _scalar_subquery(
        self,
        env: list[tuple[str, RecordType]],
        kinds: tuple[str, ...],
        depth: int,
    ) -> str | None:
        """``select [distinct] w.attr from w in DOM [where ...]`` over a
        scalar attribute of one of the given kinds; None when no domain has
        such an attribute."""
        rng = self.rng
        candidates = []
        for domain, element in self._domains(env, depth):
            for attr, kind in self._scalar_attrs(element, kinds):
                candidates.append((domain, element, attr))
        if not candidates:
            return None
        domain, element, attr = rng.choice(candidates)
        var = self._fresh_var()
        inner_env = env + [(var, element)]
        distinct = "distinct " if rng.random() < 0.4 else ""
        where = ""
        if rng.random() < 0.75:
            where = f" where {self._predicate(inner_env, max(depth - 1, 0))}"
        return f"select {distinct}{var}.{attr} from {var} in {domain}{where}"

    # -- select queries -----------------------------------------------------

    def _select_query(
        self,
        env: list[tuple[str, RecordType]],
        depth: int,
        force_plain: bool = False,
        ordered: bool = False,
    ) -> str:
        """A select-from-where query over (and possibly correlated with)
        the in-scope environment.  With *force_plain* the head is the first
        range variable itself (the shape ``count(...)`` and ``exists(...)``
        consume); with *ordered* it may sort (:meth:`_order_by`)."""
        rng = self.rng
        config = self.config

        domain, element = self._pick_domain(env, depth - 1)
        var = self._fresh_var()
        inner_env = env + [(var, element)]
        # "v in X" and "X [as] v" are both legal OQL; cover each.
        if rng.random() < 0.8 or domain[0] == "(":
            froms = [f"{var} in {domain}"]
        else:
            froms = [f"{domain} as {var}"]

        if not force_plain and rng.random() < config.group_by_probability:
            grouped = self._group_by_select(var, element, inner_env, depth)
            if grouped is not None:
                text, keys = grouped
                return text + self._order_by(keys if ordered else ())

        if rng.random() < config.second_generator_probability:
            domain2, element2 = self._pick_domain(inner_env, 0)
            var2 = self._fresh_var()
            froms.append(f"{var2} in {domain2}")
            inner_env = inner_env + [(var2, element2)]

        where = ""
        if rng.random() < config.where_probability:
            where = f" where {self._predicate(inner_env, depth - 1)}"

        distinct = "distinct " if rng.random() < config.distinct_probability else ""
        if force_plain:
            return f"select {distinct}{var} from {', '.join(froms)}{where}"

        head, keys = self._head(inner_env, depth - 1)
        order = self._order_by(keys if ordered else ())
        return f"select {distinct}{head} from {', '.join(froms)}{where}{order}"

    def _order_by(self, keys: tuple[str, ...]) -> str:
        """`` order by`` *keys*, each ascending or descending — or nothing,
        when there are no keys or the roll says so."""
        rng = self.rng
        if not keys or rng.random() >= _ORDER_BY_PROBABILITY:
            return ""
        return " order by " + ", ".join(
            key + rng.choice(("", " asc", " desc")) for key in keys
        )

    def _head(
        self, env: list[tuple[str, RecordType]], depth: int
    ) -> tuple[str, tuple[str, ...]]:
        """A select head, and the keys that order its elements totally:
        ``value`` for a scalar, every field of a struct of scalars, none
        for an object or a struct holding a collection."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.30:
            kind = rng.choice(("int", "float", "string"))
            return self._scalar_expr(env, kind, depth), ("value",)
        if roll < 0.45:
            var, _ = rng.choice(env)
            return var, ()
        # A struct head; fields may hold scalars, nested selects (type-JA
        # nesting in the head — QUERY B's shape), or correlated aggregates
        # (QUERY D's shape).
        fields = []
        scalar = True
        for index in range(rng.randint(2, 3)):
            label = f"A{index}"
            sub_roll = rng.random()
            if depth > 0 and sub_roll < 0.25:
                scalar = False
                fields.append(
                    f"{label}: ( {self._select_query(env, min(depth, 1), force_plain=True)} )"
                )
            elif depth > 0 and sub_roll < 0.45:
                aggregate = self._aggregate_subquery(env, "float", depth)
                fields.append(f"{label}: {aggregate or self._scalar_expr(env, 'int', 0)}")
            else:
                kind = rng.choice(("int", "float", "string"))
                fields.append(f"{label}: {self._scalar_expr(env, kind, 0)}")
        keys = tuple(f"value.A{i}" for i in range(len(fields))) if scalar else ()
        return f"struct( {', '.join(fields)} )", keys

    def _group_by_select(
        self,
        var: str,
        element: RecordType,
        env: list[tuple[str, RecordType]],
        depth: int,
    ) -> tuple[str, tuple[str, str]] | None:
        """``select v.g, agg(v.n) as a0 from X v group by v.g [having ...]``,
        and its items' names ``(g, a0)``."""
        rng = self.rng
        extent, element = rng.choice(self._extents())
        group_attrs = self._scalar_attrs(element, ("int", "string"))
        numeric_attrs = self._scalar_attrs(element, ("int", "float"))
        if not group_attrs or not numeric_attrs:
            return None
        group_attr, _ = rng.choice(group_attrs)
        num_attr, _ = rng.choice(numeric_attrs)
        function = rng.choice(("sum", "max", "min", "avg", "count"))
        head_agg = (
            f"count({var})" if function == "count" else f"{function}({var}.{num_attr})"
        )
        where = ""
        if rng.random() < 0.5:
            where = f" where {self._comparison([(var, element)])}"
        having = ""
        if rng.random() < 0.4:
            having = f" having count({var}) {rng.choice(('>', '>='))} {rng.randint(1, 2)}"
        return (
            f"select {var}.{group_attr}, {head_agg} as a0 "
            f"from {extent} {var}{where} group by {var}.{group_attr}{having}"
        ), (group_attr, "a0")

    # -- nested boxes correlated by a low-cardinality value -------------------

    def _value_correlated_query(self, depth: int) -> str:
        """A nested aggregate that reads of its outer row one *value* many
        rows share (attribute values come from small pools), never the row:

        * ``count( select y from y in Y where exists k in y.kids: k.m = o.a )``
          — a quantifier over a nested collection inside an aggregate over
          an extent — with ``o`` from an extent or from a nested (bag-valued)
          collection, where value-equal twins occur;
        * a two-level aggregate correlated through an arithmetic expression:
          ``sum( select y.n from y in Y where y.b = o.a % 3 and y.n >= avg(
          select z.n from z in Z where z.b = o.a % 3 ) )``.
        """
        rng = self.rng
        extents = self._extents()
        var = self._fresh_var()
        outer_extent, outer_type = rng.choice(extents)
        froms = f"{var} in {outer_extent}"
        nested = [
            (attr, coll.element)
            for attr, coll in self._collection_attrs(outer_type)
            if isinstance(coll.element, RecordType)
        ]
        if nested and rng.random() < 0.5:
            attr, outer_type = rng.choice(nested)
            parent, var = var, self._fresh_var()
            froms = f"{parent} in {outer_extent}, {var} in {parent}.{attr}"
        env = [(var, outer_type)]
        box = (
            self._quantified_count(env)
            if rng.random() < 0.6
            else self._two_level_aggregate(env)
        )
        if box is None:
            return self._select_query([], depth)
        distinct = "distinct " if rng.random() < self.config.distinct_probability else ""
        label, _ = rng.choice(self._paths_of_kind(env, ("int", "string")) or [("0", "")])
        return f"select {distinct}struct( A0: {label}, A1: {box} ) from {froms}"

    def _quantified_count(self, env: list[tuple[str, RecordType]]) -> str | None:
        rng = self.rng
        candidates = []
        for extent, record_type in self._extents():
            for attr, coll in self._collection_attrs(record_type):
                if not isinstance(coll.element, RecordType):
                    continue
                for inner, kind in self._scalar_attrs(coll.element, ("int", "string")):
                    for outer, _ in self._paths_of_kind(env, (kind,)):
                        candidates.append((extent, attr, inner, outer))
        if not candidates:
            return None
        extent, attr, inner, outer = rng.choice(candidates)
        row, element = self._fresh_var(), self._fresh_var()
        keyword, op = rng.choice((("exists", "="), ("exists", "="), ("for all", "!=")))
        return (
            f"count( select {row} from {row} in {extent} "
            f"where {keyword} {element} in {row}.{attr}: {element}.{inner} {op} {outer} )"
        )

    def _two_level_aggregate(self, env: list[tuple[str, RecordType]]) -> str | None:
        rng = self.rng
        outer = self._paths_of_kind(env, ("int",))
        inner = [
            (extent, key, num)
            for extent, record_type in self._extents()
            for key, _ in self._scalar_attrs(record_type, ("int",))
            for num, _ in self._scalar_attrs(record_type, _NUMERIC)
        ]
        if not outer or not inner:
            return None
        path, _ = rng.choice(outer)
        link = rng.choice((f"{path} % 3", f"{path} % 2 + 1", f"{path} * 2"))
        (extent1, key1, num1), (extent2, key2, num2) = rng.choice(inner), rng.choice(inner)
        row1, row2 = self._fresh_var(), self._fresh_var()
        function, nested = rng.choice(("sum", "max", "count")), rng.choice(("avg", "min"))
        head = row1 if function == "count" else f"{row1}.{num1}"
        return (
            f"{function}( select {head} from {row1} in {extent1} "
            f"where {row1}.{key1} = {link} and {row1}.{num1} >= {nested}( "
            f"select {row2}.{num2} from {row2} in {extent2} "
            f"where {row2}.{key2} = {link} ) )"
        )

    # -- two paths of one parent, one nested in the other ---------------------

    def _sibling_path_query(self, depth: int) -> str:
        """An aggregate, quantifier or nested select over a path ``t.p``
        whose head or filter holds a quantifier or aggregate over a second
        path ``t.q`` of the same parent — the ``Γ ∘ Γ ∘ =μ ∘ =μ`` chain:

        * ``count( select c from c in t.p where exists d in t.q: d.m = c.m )``;
        * ``( select struct( B0: c.m, B1: for all d in t.q: c.m >= d.m )
          from c in t.p )``;
        * ``for all c in t.p: count( select d from d in t.q where … ) > 1``;

        each as a field of ``select struct( A0: t.a, A1: … ) from t in T``.
        A quantifier's body may divide by ``d.n - k`` behind a guard that
        decides the element first where the divisor is zero — ``d.n = k or
        c.n / (d.n - k) > 0`` — so the division faults on no path.
        """
        rng = self.rng
        parents = [
            (extent, record_type, nested)
            for extent, record_type in self._extents()
            for nested in [
                [
                    (attr, coll.element)
                    for attr, coll in self._collection_attrs(record_type)
                    if isinstance(coll.element, RecordType)
                ]
            ]
            if nested
        ]
        if not parents:
            return self._select_query([], depth)
        extent, record_type, nested = rng.choice(parents)
        t, c, d = self._fresh_var(), self._fresh_var(), self._fresh_var()
        (p, c_type), (q, d_type) = rng.choice(nested), rng.choice(nested)
        inner = self._sibling_box(c, c_type, f"{t}.{q}", d, d_type)
        if inner is None:
            return self._select_query([], depth)
        text, is_bool = inner
        roll = rng.random()
        if is_bool and roll < 0.35:
            box = f"count( select {c} from {c} in {t}.{p} where {text} )"
        elif is_bool and roll < 0.55:
            box = f"{rng.choice(('for all', 'exists'))} {c} in {t}.{p}: {text}"
        elif not is_bool and roll < 0.45:
            box = f"{rng.choice(('for all', 'exists'))} {c} in {t}.{p}: {text} > 1"
        else:
            label = rng.choice(self._paths_of_kind([(c, c_type)], ("int", "string")) or [(c, "")])
            box = f"( select struct( B0: {label[0]}, B1: {text} ) from {c} in {t}.{p} )"
        label, _ = rng.choice(self._paths_of_kind([(t, record_type)], ("int", "string")) or [(t, "")])
        distinct = "distinct " if rng.random() < self.config.distinct_probability else ""
        return f"select {distinct}struct( A0: {label}, A1: {box} ) from {t} in {extent}"

    def _sibling_box(
        self, c: str, c_type: RecordType, domain: str, d: str, d_type: RecordType
    ) -> tuple[str, bool] | None:
        """A quantifier (``True``) or a count / min / max (``False``) over
        *domain* that reads the enclosing element *c*; None when the two
        element types share no scalar kind."""
        rng = self.rng
        pairs = [
            (x, y, kind)
            for x, kind in self._scalar_attrs(d_type, ("int", "float", "string"))
            for y, other in self._scalar_attrs(c_type, (kind,))
        ]
        if not pairs:
            return None
        x, y, kind = rng.choice(pairs)
        op = rng.choice(("=", "!=", "<") if kind == "string" else ("=", "<", ">=", "!="))
        compare = f"{d}.{x} {op} {c}.{y}"
        roll = rng.random()
        if roll < 0.5:
            keyword = rng.choice(("for all", "exists"))
            ints = [(x, y) for x, y, kind in pairs if kind == "int"]
            if ints and rng.random() < 0.4:
                x, y = rng.choice(ints)
                k = rng.randint(0, INT_RANGE)
                guard = f"{d}.{x} = {k} or" if keyword == "for all" else f"{d}.{x} != {k} and"
                compare = f"({guard} {c}.{y} / ({d}.{x} - {k}) > 0)"
            return f"{keyword} {d} in {domain}: {compare}", True
        if roll < 0.75 or kind not in _NUMERIC:
            return f"count( select {d} from {d} in {domain} where {compare} )", False
        function = rng.choice(("min", "max"))
        return f"{function}( select {d}.{x} from {d} in {domain} )", False

    # -- sets and bags mixed over a collection of scalars ----------------------

    def _scalar_collection_query(self, depth: int) -> str:
        """The set/bag mixes of arXiv:1905.02069 over ``t.c``, a bag, list
        or set of scalars (where a bag or list may hold one value twice):

        * a set of bags, ``select distinct ( select x from x in t.c ) …``;
        * a bag of sets, ``select ( select distinct x from x in t.c ) …``;
        * ``distinct`` under ``sum``, ``sum( select distinct x from t in
          T, x in t.c )``;
        * a ``distinct`` across the outer-unnest of a nested box,
          ``select distinct struct( A0: count( select x from x in t.c where
          … ), A1: t.a ) from t in T``;
        * a correlated ``count`` or ``sum`` driven by each element, ``select
          struct( A0: x, A1: count( select u from u in U where u.b = x ) )
          from t in T, x in t.c`` — once per occurrence.
        """
        rng = self.rng
        owners = [
            (extent, record_type, attr, _kind_of(coll.element))
            for extent, record_type in self._extents()
            for attr, coll in self._collection_attrs(record_type)
            if _kind_of(coll.element) is not None
        ]
        if not owners:
            return self._select_query([], depth)
        extent, record_type, attr, kind = rng.choice(owners)
        t, x = self._fresh_var(), self._fresh_var()
        domain = f"{x} in {t}.{attr}"
        roll = rng.random()
        if roll < 0.2:
            return f"select distinct ( select {x} from {domain} ) from {t} in {extent}"
        if roll < 0.4:
            return f"select ( select distinct {x} from {domain} ) from {t} in {extent}"
        if roll < 0.55 and kind in _NUMERIC:
            return f"sum( select distinct {x} from {t} in {extent}, {domain} )"
        label = rng.choice(self._paths_of_kind([(t, record_type)], _NUMERIC) or [(t, "")])
        if roll < 0.7:
            op = rng.choice(("=", "!=", "<") if kind == "string" else ("=", "<", ">="))
            box = (
                f"count( select {x} from {domain} "
                f"where {x} {op} {self._literal(kind, allow_null=False)} )"
            )
            return f"select distinct struct( A0: {box}, A1: {label[0]} ) from {t} in {extent}"
        keyed = [
            (other, key, num)
            for other, other_type in self._extents()
            for key, _ in self._scalar_attrs(other_type, (kind,))
            for num in [n for n, _ in self._scalar_attrs(other_type, _NUMERIC)] or [None]
        ]
        if not keyed:
            return f"select {x} from {t} in {extent}, {domain}"
        other, key, num = rng.choice(keyed)
        u = self._fresh_var()
        if num is not None and rng.random() < 0.5:
            box = f"sum( select {u}.{num} from {u} in {other} where {u}.{key} = {x} )"
        else:
            box = f"count( select {u} from {u} in {other} where {u}.{key} = {x} )"
        distinct = "distinct " if rng.random() < 0.3 else ""
        return (
            f"select {distinct}struct( A0: {x}, A1: {box} ) "
            f"from {t} in {extent}, {domain}"
        )

    # -- joins and groupings on stored objects ---------------------------------

    def _object_key_query(self, depth: int) -> str:
        """A join or a grouping whose key is a stored object — ``r``, an
        attribute holding an object of extent ``Y`` (schemagen's ``ref``):

        * a join, ``select struct( A0: …, A1: … ) from x in X, y in Y where
          x.r = y``, or of two references, ``x.r = z.r``;
        * a membership, ``x.r in ( select y from y in Y where … )``, and a
          count per object, ``count( select x from x in X where x.r = y )``;
        * a grouping, ``select x.r, count(x) as a0 from X x group by x.r``;
        * a join of the elements of two nested collections, ``c = d``.

        Bag extents and nested bags hold equal-state twins, and a reference
        may be a twin no extent holds, so a key filed by value, not by
        identity, joins or groups what it must keep apart.
        """
        rng = self.rng
        extents = self._extents()
        owners = [
            (extent, record_type, attr, target)
            for extent, record_type in extents
            for attr, attr_type in record_type.fields
            if isinstance(attr_type, RecordType)
            for target, element in extents
            if element == attr_type
        ]
        if not owners:
            return self._nested_element_join(depth)
        extent, record_type, attr, target = rng.choice(owners)
        x, y = self._fresh_var(), self._fresh_var()
        target_type = dict(extents)[target]
        env = [(x, record_type), (y, target_type)]
        distinct = "distinct " if rng.random() < self.config.distinct_probability else ""
        roll = rng.random()
        if roll < 0.3:
            key = rng.choice((f"{x}.{attr} = {y}", f"{y} = {x}.{attr}"))
            if rng.random() < 0.3:
                key += f" and {self._comparison(env)}"
            return (
                f"select {distinct}struct( A0: {self._label(x, record_type)}, "
                f"A1: {self._label(y, target_type)} ) "
                f"from {x} in {extent}, {y} in {target} where {key}"
            )
        if roll < 0.45:
            other, other_type, other_attr, _ = rng.choice(
                [o for o in owners if o[3] == target]
            )
            z = self._fresh_var()
            return (
                f"select {distinct}struct( A0: {self._label(x, record_type)}, "
                f"A1: {self._label(z, other_type)} ) from {x} in {extent}, "
                f"{z} in {other} where {x}.{attr} = {z}.{other_attr}"
            )
        if roll < 0.6:
            where = f" where {self._comparison([(y, target_type)])}" if rng.random() < 0.6 else ""
            test = f"{x}.{attr} in ( select {y} from {y} in {target}{where} )"
            if rng.random() < 0.35:
                test = f"not ({test})"
            return (
                f"select {distinct}{self._label(x, record_type)} "
                f"from {x} in {extent} where {test}"
            )
        if roll < 0.75:
            return (
                f"select {distinct}struct( A0: {self._label(y, target_type)}, "
                f"A1: count( select {x} from {x} in {extent} where {x}.{attr} = {y} ) ) "
                f"from {y} in {target}"
            )
        if roll < 0.9:
            having = f" having count({x}) > 1" if rng.random() < 0.3 else ""
            return (
                f"select {x}.{attr}, count({x}) as a0 from {extent} {x} "
                f"group by {x}.{attr}{having}"
            )
        return self._nested_element_join(depth)

    def _nested_element_join(self, depth: int) -> str:
        """``select struct( A0: c.m1, … ) from t in T, c in t.p, u in U, d
        in u.q where c = d``: the elements of nested collections, where a
        bag holds one object twice or two equal-state objects."""
        rng = self.rng
        nested = [
            (extent, record_type, attr, coll.element)
            for extent, record_type in self._extents()
            for attr, coll in self._collection_attrs(record_type)
            if isinstance(coll.element, RecordType)
        ]
        if not nested:
            return self._select_query([], depth)
        (e1, t1_type, p, c_type), (e2, _, q, d_type) = rng.choice(nested), rng.choice(nested)
        if c_type != d_type:
            return self._select_query([], depth)
        t, c, u, d = (self._fresh_var() for _ in range(4))
        distinct = "distinct " if rng.random() < self.config.distinct_probability else ""
        return (
            f"select {distinct}struct( A0: {self._label(c, c_type)}, "
            f"A1: {self._label(t, t1_type)} ) "
            f"from {t} in {e1}, {c} in {t}.{p}, {u} in {e2}, {d} in {u}.{q} where {c} = {d}"
        )

    def _label(self, var: str, record_type: RecordType) -> str:
        """A scalar path of *var*, or now and then *var* itself."""
        paths = self._paths_of_kind([(var, record_type)], ("int", "string"))
        if not paths or self.rng.random() < 0.15:
            return var
        return self.rng.choice(paths)[0]

    # -- the one shape that can fault on data ---------------------------------

    def _faulting_head_query(self, depth: int) -> str:
        """The head of the outermost comprehension divides by ``p - k``:
        ``select h / (v.a - 3) from v in X, w in v.kids where ...``, also as
        a struct field or under ``max``/``min``/``sum``.

        ``k`` comes from the pool ``p``'s values do, so some databases hit
        zero and some do not.  Every strategy evaluates that head on exactly
        the result's bindings, whatever it does below, so whether a sample
        faults does not depend on the plan — which a division inside a
        predicate, a quantifier or a nested box could not promise.
        """
        rng = self.rng
        extents = [
            (extent, record_type)
            for extent, record_type in self._extents()
            if self._scalar_attrs(record_type, ("int",))
        ]
        if not extents:
            return self._select_query([], depth)
        extent, record_type = rng.choice(extents)
        var = self._fresh_var()
        env = [(var, record_type)]
        froms = f"{var} in {extent}"
        if rng.random() < self.config.second_generator_probability:
            domain, element = rng.choice(self._domains(env, 0))
            var = self._fresh_var()
            froms += f", {var} in {domain}"
            env.append((var, element))
        base, _ = rng.choice(self._paths_of_kind(env, _NUMERIC))
        pivot, _ = rng.choice(self._paths_of_kind(env, ("int",)))
        op = rng.choice(("/", "%"))
        head = f"{base} {op} ({pivot} - {rng.randint(0, INT_RANGE)})"
        # One plain comparison at most: a selective filter leaves no binding
        # to fault on.
        where = f" where {self._comparison(env)}" if rng.random() < 0.5 else ""
        roll = rng.random()
        if roll < 0.3:
            # `%` of these operands is exact, `/` is not: only the former is
            # summed (a sum of inexact floats depends on the order added).
            functions = ("max", "min", "sum") if op == "%" else ("max", "min")
            return f"{rng.choice(functions)}( select {head} from {froms}{where} )"
        if roll < 0.6:
            label, _ = rng.choice(self._paths_of_kind(env, ("int", "string")))
            head = f"struct( A0: {label}, A1: {head} )"
        distinct = "distinct " if rng.random() < self.config.distinct_probability else ""
        return f"select {distinct}{head} from {froms}{where}"

    # -- other top-level forms ----------------------------------------------

    def _top_aggregate(self, depth: int) -> str:
        aggregate = self._aggregate_subquery([], "float", depth)
        if aggregate is None:
            return self._select_query([], depth)
        return aggregate

    def _top_boolean(self, depth: int) -> str:
        return self._quantifier([], depth)

    def _set_operation(self, depth: int) -> str:
        rng = self.rng
        candidates = [
            (extent, element, attr, kind)
            for extent, element in self._extents()
            for attr, kind in self._scalar_attrs(element)
        ]
        if not candidates:
            return self._select_query([], depth)
        extent, element, attr, kind = rng.choice(candidates)
        same_kind = [c for c in candidates if c[3] == kind]
        op = rng.choice(("union", "except", "intersect"))
        sides = []
        for _ in range(2):
            var = self._fresh_var()
            where = ""
            if rng.random() < 0.8:
                where = f" where {self._predicate([(var, element)], depth - 1)}"
            sides.append(
                f"( select distinct {var}.{attr} from {var} in {extent}{where} )"
            )
            # The second side may range over another extent's attribute of
            # the same kind: ``except`` then correlates two extents by key.
            extent, element, attr, _ = rng.choice(same_kind)
        return f"{sides[0]} {op} {sides[1]}"
