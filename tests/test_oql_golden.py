"""Golden front end: the lexer's tokens and the parser's trees, pinned.

For every corpus query and a fixed list of hostile inputs we pin what
``tokenize`` returns — ``(kind, value, position)`` triples — and what
``parse`` returns — its ``repr`` — or, for either, the exact syntax error
with its line and column; any other exception fails the test.  A change to
the lexer or the parser that changes any of them must be a conscious
decision: regenerate with

    python tests/test_oql_golden.py --regen

and review the diff of ``tests/golden_oql.json``.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from pathlib import Path

import pytest

from corpus import CORPUS
from repro.oql.lexer import OQLSyntaxError, tokenize
from repro.oql.parser import MAX_NESTING, parse

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_oql.json"

_BASE = "select e from e in Employees where "


def _nested(name: str, build) -> dict[str, str]:
    """*build(n)* at exactly MAX_NESTING levels and at one past it."""
    return {
        f"{name}-{n}": build(n) for n in (MAX_NESTING, MAX_NESTING + 1)
    }


#: Inputs that probe the corners of the lexer and the parser.
HOSTILE: dict[str, str] = {
    "empty": "",
    "blank": "  \n\t ",
    "comment-at-eof": "count( Employees ) -- no newline after me",
    "comment-only": "-- nothing else",
    "comment-then-query": "-- first line\ncount( Employees )",
    "diamond": _BASE + "e.age <> 3",
    "all-comparisons": _BASE + "e.age = 1 or e.age != 2 or e.age < 3 "
    "or e.age <= 4 or e.age > 5 or e.age >= 6",
    "every-escape": _BASE + 'e.name = "q\\" b\\\\ n\\n t\\t r\\r"',
    "unknown-escape": _BASE + 'e.name = "a\\qb"',
    "unterminated-string": _BASE + 'e.name = "abc',
    "unterminated-after-backslash": _BASE + 'e.name = "abc\\',
    "string-with-newline": _BASE + 'e.name = "two\nlines"',
    "string-then-symbol": _BASE + 'e.name = "+" + "and"',
    "unicode-letters": "select éa from éa in Employees where éa.ñame = \"ü\"",
    "unicode-spaces": "select e from e in　Employees",
    "unicode-digit": _BASE + "e.age > ٣",
    "unicode-digit-float": _BASE + "e.age > ١.٥",
    "superscript-digit": _BASE + "e.age > 1²",
    "superscript-after-dot": _BASE + "e.age > 1.²",
    "int-dot-ident": "1.x",
    "int-dot-dot-int": "1..2",
    "float": _BASE + "e.salary > 1.5",
    "float-no-fraction": _BASE + "e.salary > 1.",
    "unexpected-character": _BASE + "e.age @ 3",
    "underscore-names": "select _a1 from _a1 in Employees",
    "keyword-case": "SELECT DISTINCT e.Name FROM e IN Employees WHERE NOT e.age > 3",
    "parameter": _BASE + "e.age > :low and e.dno = :d",
    "parameter-keyword": _BASE + "e.age > :select",
    "parameter-missing": _BASE + "e.age > :",
    "precedence-arith": "1 + 2 * 3 - 4 / 5 % 6 - -7",
    "precedence-bool": _BASE + "not e.age = 1 and e.dno = 2 or e.age in e.kids",
    "left-assoc": "1 - 2 - 3",
    "comparison-chain": "1 = 2 = 3",
    "comparison-then-in": "1 = 2 in x",
    "in-chain": "a in b in c",
    "unary-minus-path": "- e.age . x",
    "not-not": "not not true",
    "exists-predicate-or": "exists c in e.children: c.age > 1 or true",
    "exists-domain-additive": "exists c in a + b: c",
    "exists-query": "exists( select e from e in Employees )",
    "forall": "for all c in e.children: c.age > 1 and c.age < 9",
    "from-as": "select x from Employees as x, Departments d",
    "group-having-order": "select e.dno, count(e) as n from Employees e "
    "group by e.dno having count(e) > 1 order by value desc, e.dno asc",
    "struct-fields": "struct( a: 1, b: e.x + 2 )",
    "struct-empty": "struct()",
    "aggregates": "count(x) + sum(x) + avg(x) + max(x) + min(x)",
    "flatten": "flatten( select e.children from e in Employees )",
    "set-ops": "A union B except C intersect D",
    "literals": "struct( t: true, f: false, n: nil, i: 42, s: \"s\" )",
    "missing-from": "select e where e.age > 3",
    "trailing-garbage": "count( Employees ) )",
    "dangling-operator": "1 +",
    "dangling-dot": "e.",
    "dot-keyword": "e.select",
    "open-paren": "( 1",
    "close-paren": ")",
    "define": "define v as select e from e in Employees",
    **_nested("not", lambda n: "not " * n + "true"),
    **_nested("unary-minus", lambda n: "- " * n + "1"),
    **_nested("dot", lambda n: "e" + ".a" * n),
    **_nested("binary-chain", lambda n: " + ".join(["1"] * (n + 1))),
    **_nested("or-chain", lambda n: " or ".join(["true"] * (n + 1))),
    **_nested("union", lambda n: " union ".join(["E"] * (n + 1))),
    **_nested("parentheses", lambda n: "(" * n + "1" + ")" * n),
    **_nested("nested-chains", lambda n: "(1 + " * n + "1" + ")" * n),
    **_nested("not-parentheses", lambda n: "not (" * n + "true" + ")" * n),
    **_nested("minus-dot", lambda n: "- " * (n // 2) + "e" + ".a" * (n - n // 2)),
    **_nested(
        "nested-selects",
        lambda n: "count( select x from x in " * n + "E" + " )" * n,
    ),
}

INPUTS: dict[str, str] = {
    **{f"corpus:{query.name}": query.oql for query in CORPUS},
    **{f"hostile:{name}": source for name, source in HOSTILE.items()},
}


def front_end(source: str) -> dict[str, object]:
    """What the lexer and the parser make of *source*."""
    entry: dict[str, object] = {"source": source}
    try:
        entry["tokens"] = [
            [token.kind, token.value, token.position] for token in tokenize(source)
        ]
    except OQLSyntaxError as error:
        entry["tokens_error"] = f"{type(error).__name__}: {error}"
    try:
        entry["parse"] = repr(parse(source))
    except OQLSyntaxError as error:
        entry["parse_error"] = f"{type(error).__name__}: {error}"
    return entry


def compute_golden() -> dict[str, dict[str, object]]:
    return {name: front_end(source) for name, source in INPUTS.items()}


@functools.cache
def _load() -> dict[str, dict[str, object]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_front_end_matches_golden(name):
    golden = _load()
    assert name in golden, f"{name} has no golden entry; regenerate"
    assert front_end(INPUTS[name]) == golden[name]


def test_golden_has_no_stale_entries():
    assert sorted(_load()) == sorted(INPUTS)


#: A ``[kind, value, position]`` triple as ``json.dumps(indent=1)`` spreads it.
_TRIPLE = re.compile(r'\[\s+("(?:[^"\\]|\\.)*"),\s+("(?:[^"\\]|\\.)*"),\s+(\d+)\s+\]')


def dumps(golden: dict[str, dict[str, object]]) -> str:
    """*golden* as indented JSON with one token triple a line."""
    text = json.dumps(golden, indent=1, ensure_ascii=False, sort_keys=True)
    return _TRIPLE.sub(r"[\1, \2, \3]", text) + "\n"


if __name__ == "__main__":
    if "--regen" in sys.argv:
        GOLDEN_PATH.write_text(dumps(compute_golden()), encoding="utf-8")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
