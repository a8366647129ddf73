"""Utilities for prepared-statement parameters (OQL ``:name``).

The central helper, :func:`parameterize_literals`, lifts every literal
constant of a query into a ``:pN`` placeholder, returning the parameterized
source plus the extracted bindings.  This is how a serving layer turns a
stream of ad-hoc query strings that differ only in their constants into a
single cacheable plan shape — and how the test suite and
``benchmarks/bench_prepared.py`` check that bound-parameter execution gives
exactly the same results as constant-inlined execution over the whole query
corpus.
"""

from __future__ import annotations

from typing import Any

from repro.oql.lexer import Token, tokenize

#: Token kinds that denote literal constants in OQL source.
_LITERAL_KINDS = frozenset({"int", "float", "string"})


def parameterize_literals(
    source: str, prefix: str = "p"
) -> tuple[str, dict[str, Any]]:
    """Replace every literal constant of *source* with a placeholder.

    Returns ``(parameterized_source, params)`` where *params* maps the
    generated names (``p0``, ``p1``, ... in source order) to the literal
    values they replaced.  Booleans and ``nil`` are keywords, not literal
    tokens, and are left in place.

    >>> parameterize_literals('select e from e in E where e.dno = 4')
    ('select e from e in E where e.dno = :p0', {'p0': 4})
    """
    params: dict[str, Any] = {}
    pieces: list[str] = []
    cursor = 0
    for token in tokenize(source):
        if token.kind not in _LITERAL_KINDS:
            continue
        name = f"{prefix}{len(params)}"
        params[name] = _literal_value(token)
        pieces.append(source[cursor : token.position])
        pieces.append(f":{name}")
        cursor = token.end
    pieces.append(source[cursor:])
    return "".join(pieces), params


def _literal_value(token: Token) -> Any:
    if token.kind == "int":
        return int(token.value)
    if token.kind == "float":
        return float(token.value)
    return token.value

