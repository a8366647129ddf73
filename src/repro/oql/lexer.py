"""Lexer for the ODMG OQL subset used by the paper's examples.

Keywords are case-insensitive (the paper writes them lowercase); identifiers
are case-sensitive.  String literals use double quotes, as in the paper's
``c.name = "Arlington"``.
"""

from __future__ import annotations

import re

from repro.errors import PlanningError

KEYWORDS = frozenset(
    {
        "select",
        "distinct",
        "from",
        "where",
        "in",
        "as",
        "group",
        "by",
        "having",
        "order",
        "asc",
        "desc",
        "exists",
        "for",
        "all",
        "and",
        "or",
        "not",
        "true",
        "false",
        "nil",
        "struct",
        "count",
        "sum",
        "avg",
        "max",
        "min",
        "flatten",
        "define",
        "union",
        "except",
        "intersect",
    }
)

#: Multi- and single-character symbols, longest first.
SYMBOLS = ("<=", ">=", "!=", "<>", "=", "<", ">", "(", ")", ",", ".", ":", "+", "-", "*", "/", "%")

#: One scan, one match per token.  A match skips whitespace and ``--``
#: comments, then takes, by group number, 1 a word that starts with an ASCII
#: letter or ``_``, 2 a float, 3 an int (``\d`` is exactly what ``int`` and
#: ``float`` accept), 4 the text of a string without escapes or 5 a symbol —
#: or nothing: at the end of the source, or where :func:`_lex_slow` takes
#: over (an escaped or unterminated string, a word that starts with a
#: non-ASCII letter, a stray character).  Every match starts where the last
#: one ended, so the scan never searches ahead.
_SCAN = re.compile(
    r"(?:\s|--[^\n]*)*(?:([A-Za-z_]\w*)|(\d+\.\d+)|(\d+)|\"([^\"\\]*)\"|("
    + "|".join(map(re.escape, SYMBOLS))
    + ")|)"
).finditer

_WORD_TAIL = re.compile(r"\w*").match
_GROUP_KINDS = {2: "float", 3: "int"}


class Token:
    """One lexical token: kind is 'keyword', 'ident', 'int', 'float',
    'string', 'symbol', or 'eof'; ``source[position:end]`` is its text."""

    __slots__ = ("kind", "value", "position", "end")

    def __init__(self, kind: str, value: str, position: int, end: int | None = None):
        self.kind, self.value, self.position = kind, value, position
        self.end = position + len(value) if end is None else end

    def _fields(self) -> tuple[str, str, int, int]:
        return (self.kind, self.value, self.position, self.end)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


class OQLSyntaxError(PlanningError, SyntaxError):
    """A lexical or syntactic error in an OQL query.

    Both a :class:`~repro.errors.PlanningError` (the structured taxonomy)
    and a ``SyntaxError`` (the historical base, for existing callers).
    """

    def __init__(self, message: str, source: str, position: int):
        line = source.count("\n", 0, position) + 1
        column = position - (source.rfind("\n", 0, position) + 1) + 1
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.source = source


def tokenize(source: str) -> list[Token]:
    """Tokenize an OQL query, ending with an 'eof' token."""
    tokens: list[Token] = []
    append = tokens.append
    index, length = 0, len(source)
    while True:
        for match in _SCAN(source, index):
            group = match.lastindex
            if group is None:
                break
            value, start = match[group], match.start(group)
            if group == 1:
                word = value.lower()
                if word in KEYWORDS:
                    append(Token("keyword", word, start, match.end()))
                else:
                    append(Token("ident", value, start, match.end()))
            elif group == 5:
                append(Token("symbol", "!=" if value == "<>" else value, start, match.end()))
            elif group == 4:
                append(Token("string", value, start - 1, match.end()))
            else:
                append(Token(_GROUP_KINDS[group], value, start, match.end()))
        index = match.end()
        if index == length:
            append(Token("eof", "", length, length))
            return tokens
        index = _lex_slow(source, index, append)


def _lex_slow(source: str, index: int, append) -> int:
    """Lex the one token at *index* the scan cannot; return where it ends."""
    char = source[index]
    if char == '"':
        return _lex_string(source, index, append)
    if char.isalpha():  # ``\w`` is exactly ``isalnum()`` or ``_``
        end = _WORD_TAIL(source, index + 1).end()
        word = source[index:end]
        if word.lower() in KEYWORDS:
            append(Token("keyword", word.lower(), index, end))
        else:
            append(Token("ident", word, index, end))
        return end
    raise OQLSyntaxError(f"unexpected character {char!r}", source, index)


#: Backslash escapes recognized inside string literals.
_STRING_ESCAPES = {
    '"': '"',
    "\\": "\\",
    "n": "\n",
    "t": "\t",
    "r": "\r",
}


def _lex_string(source: str, index: int, append) -> int:
    """Lex a double-quoted string literal starting at *index*.

    Supports the usual backslash escapes (``\\"``, ``\\\\``, ``\\n``,
    ``\\t``, ``\\r``); an escaped quote does not terminate the literal.
    """
    start = index
    length = len(source)
    parts: list[str] = []
    index += 1
    while index < length:
        char = source[index]
        if char == '"':
            append(Token("string", "".join(parts), start, index + 1))
            return index + 1
        if char == "\\":
            if index + 1 >= length:
                raise OQLSyntaxError(
                    "unterminated string literal", source, start
                )
            escape = source[index + 1]
            try:
                parts.append(_STRING_ESCAPES[escape])
            except KeyError:
                raise OQLSyntaxError(
                    f"unknown string escape \\{escape}", source, index
                ) from None
            index += 2
            continue
        parts.append(char)
        index += 1
    raise OQLSyntaxError("unterminated string literal", source, start)
