"""Recursive-descent parser for the OQL subset.

Grammar (keywords case-insensitive)::

    query        ::= select | or_expr
    select       ::= SELECT [DISTINCT] item {, item}
                     FROM from_clause {, from_clause}
                     [WHERE or_expr]
                     [GROUP BY or_expr {, or_expr}]
                     [HAVING or_expr]
    item         ::= or_expr [AS ident]
    from_clause  ::= ident IN or_expr | or_expr [AS] ident
    or_expr      ::= and_expr {OR and_expr}
    and_expr     ::= not_expr {AND not_expr}
    not_expr     ::= NOT not_expr | quantifier | comparison
    quantifier   ::= EXISTS ident IN additive ':' or_expr
                   | EXISTS '(' query ')'
                   | FOR ALL ident IN additive ':' or_expr
    comparison   ::= additive [(= | != | < | <= | > | >= | IN) additive]
    additive     ::= multiplicative {(+ | -) multiplicative}
    multiplicative ::= unary {(* | /) unary}
    unary        ::= '-' unary | postfix
    postfix      ::= primary {'.' ident}
    primary      ::= literal | ident | ':' ident | aggregate '(' query ')'
                   | STRUCT '(' ident ':' or_expr {, ident ':' or_expr} ')'
                   | '(' query ')'
    aggregate    ::= COUNT | SUM | AVG | MAX | MIN

A ``:name`` in expression position is a prepared-statement parameter.  The
colons of ``struct(A: e)`` and ``exists v in e: p`` are consumed before an
expression is parsed, so a colon *starting* an expression is unambiguous.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.oql.ast import (
    Aggregate,
    BinaryOp,
    Define,
    Exists,
    Flatten,
    ForAll,
    FromClause,
    InCollection,
    Literal,
    Name,
    Node,
    OrderItem,
    Parameter,
    Path,
    Select,
    SelectItem,
    SetOp,
    Struct,
    UnaryOp,
)
from repro.oql.lexer import OQLSyntaxError, Token, tokenize

_AGGREGATES = frozenset({"count", "sum", "avg", "max", "min"})
_COMPARISONS = frozenset({"=", "!=", "<", "<=", ">", ">="})

#: How deep a query may nest; deeper is an OQLSyntaxError at the token that
#: crosses it.  It bounds the parser's own nesting (parentheses, nested
#: clauses, ``not``, unary ``-``) and the tree's depth (``not``, unary ``-``
#: and each operator of a chain: ``a + b``, ``p and q``, ``x.a``, ``union``).
#: Later stages recurse over the tree; SQLite's parser takes about 30 levels
#: of ``- - x``, i.e. ``(0 - (0 - x))``, three of its 100 stack entries each.
MAX_NESTING = 30


def _path(_dot: str, base: Node, attr: str) -> Path:  # ``base.attr`` for _chain
    return Path(base, attr)


def parse(source: str) -> Node:
    """Parse an OQL query string into an AST."""
    parser = _Parser(source)
    node = parser.parse_query()
    parser.expect_eof()
    return node


def parse_statement(source: str) -> Node:
    """Parse a query or a ``define name as query`` view definition."""
    parser = _Parser(source)
    if parser._accept_keyword("define"):
        name = parser._expect_ident()
        parser._expect_keyword("as")
        query = parser.parse_query()
        parser.expect_eof()
        return Define(name, query)
    node = parser.parse_query()
    parser.expect_eof()
    return node


class _Parser:
    def __init__(self, source: str):
        self._source = source
        self._tokens = tokenize(source)
        self._index = 0
        # The parser's nesting, the tree level parsed, the deepest reached.
        self._depth, self._level, self._peak = -1, 0, 0

    # -- token plumbing --------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != "eof":
            self._index += 1
        return token

    def _at_keyword(self, *words: str) -> bool:
        token = self._peek()
        return token.kind == "keyword" and token.value in words

    def _at_symbol(self, *symbols: str) -> bool:
        token = self._peek()
        return token.kind == "symbol" and token.value in symbols

    def _accept_keyword(self, word: str) -> bool:
        if self._at_keyword(word):
            self._advance()
            return True
        return False

    def _accept_symbol(self, symbol: str) -> bool:
        if self._at_symbol(symbol):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            self._fail(f"expected keyword {word!r}")

    def _expect_symbol(self, symbol: str) -> None:
        if not self._accept_symbol(symbol):
            self._fail(f"expected {symbol!r}")

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind != "ident":
            self._fail("expected an identifier")
        self._advance()
        return token.value

    def expect_eof(self) -> None:
        token = self._peek()
        if token.kind != "eof":
            self._fail(f"unexpected trailing input {token.value!r}")

    def _fail(self, message: str) -> None:
        token = self._peek()
        found = token.value or "end of input"
        raise OQLSyntaxError(
            f"{message}, found {found!r}", self._source, token.position
        )

    # -- nesting (see MAX_NESTING) ---------------------------------------------

    def _reach(self, level: int, token: Token) -> None:
        if level > MAX_NESTING or self._depth > MAX_NESTING:
            message = f"expression nested deeper than {MAX_NESTING} levels"
            raise OQLSyntaxError(message, self._source, token.position)
        self._peak = max(self._peak, level)

    def _descend(self, token: Token, parse: Callable[[], Node], step: int = 1) -> Node:
        """*parse* (at *token*) a parser level and *step* tree levels down."""
        self._depth, self._level = self._depth + 1, self._level + step
        outer, self._peak = self._peak, self._level
        self._reach(self._level, token)
        node = parse()
        self._depth, self._level = self._depth - 1, self._level - step
        self._peak = max(outer, self._peak)
        return node

    def _chain(self, node: Node, operand: Callable, ops: tuple, build=BinaryOp) -> Node:
        """``node {op operand}`` as a left-deep tree: each operator puts the
        tree so far one level further down than the deeper of it and the
        operand, which is measured on its own."""
        tokens = self._tokens  # the last is "eof", which _advance never passes
        while (token := tokens[self._index]).value in ops and token.kind != "string":
            self._advance()
            outer, self._peak = self._peak, self._level
            node = build(token.value, node, operand())
            self._reach(max(outer, self._peak) + 1, token)
        return node

    # -- grammar ---------------------------------------------------------------

    def parse_query(self) -> Node:
        operand, ops = self._parse_query_operand, ("union", "except", "intersect")
        return self._chain(operand(), operand, ops, SetOp)

    def _parse_query_operand(self) -> Node:
        if self._at_keyword("select"):
            return self._parse_select()
        return self._parse_or()

    def _parse_select(self) -> Select:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        items = [self._parse_item()]
        while self._accept_symbol(","):
            items.append(self._parse_item())
        self._expect_keyword("from")
        froms = [self._parse_from_clause()]
        while self._accept_symbol(","):
            froms.append(self._parse_from_clause())
        where = None
        if self._accept_keyword("where"):
            where = self._parse_or()
        group_by: list[Node] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self._parse_or())
            while self._accept_symbol(","):
                group_by.append(self._parse_or())
        having = None
        if self._accept_keyword("having"):
            having = self._parse_or()
        order_by: list[OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._accept_symbol(","):
                order_by.append(self._parse_order_item())
        return Select(
            distinct=distinct,
            items=tuple(items),
            from_clauses=tuple(froms),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
        )

    def _parse_order_item(self) -> OrderItem:
        expr = self._parse_or()
        ascending = True
        if self._accept_keyword("desc"):
            ascending = False
        else:
            self._accept_keyword("asc")
        return OrderItem(expr, ascending)

    def _parse_item(self) -> SelectItem:
        expr = self._parse_or()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        return SelectItem(expr, alias)

    def _parse_from_clause(self) -> FromClause:
        # "v in domain" form.
        ahead = self._peek(1)
        if (
            self._peek().kind == "ident"
            and ahead.kind == "keyword"
            and ahead.value == "in"
        ):
            var = self._expect_ident()
            self._expect_keyword("in")
            domain = self._parse_or()
            return FromClause(var, domain)
        # "domain [as] v" form.
        domain = self._parse_or()
        self._accept_keyword("as")
        var = self._expect_ident()
        return FromClause(var, domain)

    def _parse_or(self) -> Node:
        return self._descend(self._tokens[self._index], self._or_chain, step=0)

    def _or_chain(self) -> Node:
        return self._chain(self._parse_and(), self._parse_and, ("or",))

    def _parse_and(self) -> Node:
        return self._chain(self._parse_not(), self._parse_not, ("and",))

    def _parse_not(self) -> Node:
        if self._at_keyword("not"):
            return UnaryOp("not", self._descend(self._advance(), self._parse_not))
        if self._at_keyword("exists"):
            return self._parse_exists()
        if self._at_keyword("for"):
            return self._parse_forall()
        return self._parse_comparison()

    def _parse_exists(self) -> Node:
        self._expect_keyword("exists")
        if self._at_symbol("("):
            # exists(query): true iff the collection is non-empty.
            self._expect_symbol("(")
            query = self.parse_query()
            self._expect_symbol(")")
            return Exists("__element", query, Literal(True))
        var = self._expect_ident()
        self._expect_keyword("in")
        domain = self._parse_additive()
        self._expect_symbol(":")
        predicate = self._parse_or()
        return Exists(var, domain, predicate)

    def _parse_forall(self) -> Node:
        self._expect_keyword("for")
        self._expect_keyword("all")
        var = self._expect_ident()
        self._expect_keyword("in")
        domain = self._parse_additive()
        self._expect_symbol(":")
        predicate = self._parse_or()
        return ForAll(var, domain, predicate)

    def _parse_comparison(self) -> Node:
        node = self._parse_additive()
        token = self._peek()
        if token.kind == "symbol" and token.value in _COMPARISONS:
            self._advance()
            op = "==" if token.value == "=" else token.value
            return BinaryOp(op, node, self._parse_additive())
        if self._accept_keyword("in"):
            return InCollection(node, self._parse_additive())
        return node

    def _parse_additive(self) -> Node:
        return self._chain(
            self._parse_multiplicative(), self._parse_multiplicative, ("+", "-")
        )

    def _parse_multiplicative(self) -> Node:
        return self._chain(self._parse_unary(), self._parse_unary, ("*", "/", "%"))

    def _parse_unary(self) -> Node:
        if self._at_symbol("-"):
            return UnaryOp("-", self._descend(self._advance(), self._parse_unary))
        return self._parse_postfix()

    def _parse_postfix(self) -> Node:
        return self._chain(self._parse_primary(), self._expect_ident, (".",), _path)

    def _parse_primary(self) -> Node:
        token = self._peek()
        if token.kind == "int":
            self._advance()
            return Literal(int(token.value))
        if token.kind == "float":
            self._advance()
            return Literal(float(token.value))
        if token.kind == "string":
            self._advance()
            return Literal(token.value)
        if self._accept_keyword("true"):
            return Literal(True)
        if self._accept_keyword("false"):
            return Literal(False)
        if self._accept_keyword("nil"):
            return Literal(None)
        if token.kind == "keyword" and token.value in _AGGREGATES:
            self._advance()
            self._expect_symbol("(")
            argument = self.parse_query()
            self._expect_symbol(")")
            return Aggregate(token.value, argument)
        if self._accept_keyword("flatten"):
            self._expect_symbol("(")
            argument = self.parse_query()
            self._expect_symbol(")")
            return Flatten(argument)
        if self._accept_keyword("struct"):
            return self._parse_struct()
        if self._at_symbol(":"):
            return self._parse_parameter()
        if token.kind == "ident":
            self._advance()
            return Name(token.value)
        if self._accept_symbol("("):
            node = self.parse_query()
            self._expect_symbol(")")
            return node
        self._fail("expected an expression")
        raise AssertionError("unreachable")

    def _parse_parameter(self) -> Parameter:
        self._expect_symbol(":")
        token = self._peek()
        if token.kind == "keyword":
            self._fail(
                f"parameter name {token.value!r} is a reserved keyword"
            )
        name = self._expect_ident()
        return Parameter(name)

    def _parse_struct(self) -> Struct:
        self._expect_symbol("(")
        fields: list[tuple[str, Node]] = []
        while True:
            name = self._expect_ident()
            self._expect_symbol(":")
            fields.append((name, self._parse_or()))
            if not self._accept_symbol(","):
                break
        self._expect_symbol(")")
        return Struct(tuple(fields))
