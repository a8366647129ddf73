"""Recursive-descent parser for the OQL subset, with precedence climbing.

Grammar (keywords case-insensitive)::

    query        ::= operand {(UNION | EXCEPT | INTERSECT) operand}
    operand      ::= select | expr
    select       ::= SELECT [DISTINCT] item {, item}
                     FROM from_clause {, from_clause}
                     [WHERE expr] [GROUP BY expr {, expr}] [HAVING expr]
                     [ORDER BY expr [ASC | DESC] {, expr [ASC | DESC]}]
    item         ::= expr [AS ident]
    from_clause  ::= ident IN expr | expr [AS] ident
    expr         ::= prefix | unary | expr binary_op expr
    prefix       ::= NOT expr₃ | EXISTS ident IN expr₄ ':' expr
                   | EXISTS '(' query ')' | FOR ALL ident IN expr₄ ':' expr
    unary        ::= '-' unary | primary {'.' ident}
    primary      ::= literal | ident | ':' ident | aggregate '(' query ')'
                   | FLATTEN '(' query ')' | '(' query ')'
                   | STRUCT '(' ident ':' expr {, ident ':' expr} ')'
    aggregate    ::= COUNT | SUM | AVG | MAX | MIN

Binary operators bind by one table, loosest first; ``exprₙ`` is an
expression whose operators all have precedence n or more:

    ====  =============================  ===========================
    prec  operators                      associativity
    ====  =============================  ===========================
    1     OR                             left
    2     AND                            left
    3     = != <> < <= > >= IN           none: ``a = b = c`` is an error
    4     + -                            left
    5     * / %                          left
    ====  =============================  ===========================

A prefix form binds looser than every comparison and tighter than AND, so it
starts an operand of precedence 3 or less (``not a = b and c`` is ``(not (a
= b)) and c``) and only AND or OR may follow it.  ``-`` and ``.`` bind
tighter than every binary operator.

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
_CONSTANTS = {"true": True, "false": False, "nil": None}
_LITERALS = {"int": int, "float": float, "string": str}
_PREFIXES = frozenset({"not", "exists", "for"})

#: The binary operators' precedences (the table in the module docstring).
#: A value in the table names an operator unless its token is a string.
_PRECEDENCE = {
    "or": 1,
    "and": 2,
    **dict.fromkeys(("=", "!=", "<", "<=", ">", ">=", "in"), 3),
    **dict.fromkeys(("+", "-"), 4),
    **dict.fromkeys(("*", "/", "%"), 5),
}
_COMPARISON = 3  # the one non-associative precedence; it adds no level
_UNARY = 6  # binds tighter than every binary operator

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


def is_definition(source: str) -> bool:
    """Whether *source* is a view definition: its first token is the
    keyword ``define``.  A word that only begins with it (``defined``) is an
    identifier, and a source that does not lex is not a definition either —
    it fails as a query, typed."""
    try:
        first = tokenize(source)[0]
    except OQLSyntaxError:
        return False
    return first.kind == "keyword" and first.value == "define"


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

    def _peek(self) -> Token:
        return self._tokens[self._index]  # the last is "eof", never passed

    def _accept_keyword(self, word: str) -> bool:
        token = self._tokens[self._index]
        if token.value == word and token.kind == "keyword":
            self._index += 1
            return True
        return False

    def _accept_symbol(self, symbol: str) -> bool:
        token = self._tokens[self._index]
        if token.value == symbol and token.kind == "symbol":
            self._index += 1
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            self._fail(f"expected keyword {word!r}")

    def _expect_symbol(self, symbol: str) -> None:
        if not self._accept_symbol(symbol):
            self._fail(f"expected {symbol!r}")

    def _expect_ident(self) -> str:
        token = self._tokens[self._index]
        if token.kind != "ident":
            self._fail("expected an identifier")
        self._index += 1
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

    def _descend(self, token: Token, lowest: int, step: int = 1) -> Node:
        """Parse (at *token*) an expression of precedence *lowest* or more,
        one parser level and *step* tree levels down."""
        self._depth, self._level = self._depth + 1, self._level + step
        outer, self._peak = self._peak, self._level
        self._reach(self._level, token)
        node = self._expression(lowest)
        self._depth, self._level = self._depth - 1, self._level - step
        self._peak = max(outer, self._peak)
        return node

    def _chain(self, node: Node, operand: Callable, ops: tuple, build) -> Node:
        """``node {op operand}`` as a left-deep tree: each operator puts the
        tree so far one level further down than the deeper of it and the
        operand, which is measured on its own."""
        tokens = self._tokens
        while (token := tokens[self._index]).value in ops and token.kind != "string":
            self._index += 1
            outer, self._peak = self._peak, self._level
            node = build(token.value, node, operand())
            self._reach(max(outer, self._peak) + 1, token)
        return node

    # -- grammar ---------------------------------------------------------------

    def parse_query(self) -> Node:
        operand, ops = self._parse_query_operand, ("union", "except", "intersect")
        return self._chain(operand(), operand, ops, SetOp)

    def _parse_query_operand(self) -> Node:
        if self._accept_keyword("select"):
            return self._parse_select()
        return self._parse_or()

    def _parse_select(self) -> Select:
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
        # "v in domain" form; an ident is never the last ("eof") token.
        if self._peek().kind == "ident":
            ahead = self._tokens[self._index + 1]
            if ahead.kind == "keyword" and ahead.value == "in":
                var = self._expect_ident()
                self._index += 1
                return FromClause(var, self._parse_or())
        # "domain [as] v" form.
        domain = self._parse_or()
        self._accept_keyword("as")
        var = self._expect_ident()
        return FromClause(var, domain)

    def _parse_or(self) -> Node:
        return self._descend(self._tokens[self._index], 1, step=0)

    def _expression(self, lowest: int) -> Node:
        """Precedence climbing: the operators of precedence *lowest* or more
        over prefix and unary operands.  *ceiling* bounds what may follow
        what was parsed: no operator binds tighter than the last one, a
        comparison follows no comparison and only AND/OR follow a prefix."""
        tokens = self._tokens
        token = tokens[self._index]
        ceiling = _UNARY
        if token.kind == "keyword" and token.value in _PREFIXES and lowest <= _COMPARISON:
            node, ceiling = self._parse_prefix(token), _COMPARISON
        elif token.value == "-" and token.kind == "symbol":
            self._index += 1
            node = UnaryOp("-", self._descend(token, _UNARY))
        else:
            node = self._parse_primary()
            if tokens[self._index].value == ".":
                node = self._chain(node, self._expect_ident, (".",), _path)
        while True:
            token = tokens[self._index]
            precedence = _PRECEDENCE.get(token.value, 0)
            if not lowest <= precedence < ceiling or token.kind == "string":
                return node
            self._index += 1
            if precedence == _COMPARISON:
                right, ceiling = self._expression(_COMPARISON + 1), _COMPARISON
                if token.value == "in":
                    node = InCollection(node, right)
                else:
                    op = "==" if token.value == "=" else token.value
                    node = BinaryOp(op, node, right)
                continue
            outer, self._peak = self._peak, self._level
            node = BinaryOp(token.value, node, self._expression(precedence + 1))
            self._reach(max(outer, self._peak) + 1, token)
            ceiling = precedence + 1

    def _parse_prefix(self, token: Token) -> Node:
        self._index += 1
        if token.value == "not":
            return UnaryOp("not", self._descend(token, _COMPARISON))
        if token.value == "exists" and self._accept_symbol("("):
            # exists(query): true iff the collection is non-empty.
            query = self.parse_query()
            self._expect_symbol(")")
            return Exists("__element", query, Literal(True))
        if token.value == "for":
            self._expect_keyword("all")
        var = self._expect_ident()
        self._expect_keyword("in")
        domain = self._expression(_COMPARISON + 1)
        self._expect_symbol(":")
        predicate = self._parse_or()
        build = Exists if token.value == "exists" else ForAll
        return build(var, domain, predicate)

    def _parse_primary(self) -> Node:
        token = self._tokens[self._index]
        kind, value = token.kind, token.value
        if kind == "ident":
            self._index += 1
            return Name(value)
        if kind in _LITERALS:
            self._index += 1
            return Literal(_LITERALS[kind](value))
        if kind == "keyword":
            if value in _CONSTANTS:
                self._index += 1
                return Literal(_CONSTANTS[value])
            if value in _AGGREGATES or value == "flatten":
                self._index += 1
                self._expect_symbol("(")
                argument = self.parse_query()
                self._expect_symbol(")")
                return Flatten(argument) if value == "flatten" else Aggregate(value, argument)
            if value == "struct":
                self._index += 1
                return self._parse_struct()
        elif kind == "symbol":
            if value == ":":
                self._index += 1
                return self._parse_parameter()
            if value == "(":
                self._index += 1
                node = self.parse_query()
                self._expect_symbol(")")
                return node
        self._fail("expected an expression")
        raise AssertionError("unreachable")

    def _parse_parameter(self) -> Parameter:
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
