"""Pretty-printing of calculus terms in the paper's surface notation.

``U{ ( E=e.name, C=c.name ) | e <- Employees, c <- e.children }`` — the
printer is used by error messages, the examples, and the figure-reproduction
benchmarks.  ``pretty`` output is designed to be re-parseable by eye, not by
machine; the machine-facing form is the term structure itself.
"""

from __future__ import annotations

from repro.calculus.terms import (
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

_MONOID_BRACES = {
    "set": ("{", "}"),
    "bag": ("{{", "}}"),
    "list": ("[", "]"),
}


def pretty(term: Term) -> str:
    """Render *term* in the paper's comprehension notation."""
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Const):
        if isinstance(term.value, str):
            return f'"{term.value}"'
        if isinstance(term.value, bool):
            return "true" if term.value else "false"
        return str(term.value)
    if isinstance(term, Null):
        return "NULL"
    if isinstance(term, Param):
        return f":{term.name}"
    if isinstance(term, Extent):
        return term.name
    if isinstance(term, RecordCons):
        inner = ", ".join(f"{name}={pretty(expr)}" for name, expr in term.fields)
        return f"( {inner} )"
    if isinstance(term, Proj):
        return f"{_atom(term.expr)}.{term.attr}"
    if isinstance(term, Lambda):
        return f"\\{term.param}. {pretty(term.body)}"
    if isinstance(term, Apply):
        return f"{_atom(term.fn)}({pretty(term.arg)})"
    if isinstance(term, If):
        return (
            f"if {pretty(term.cond)} then {pretty(term.then)} "
            f"else {pretty(term.orelse)}"
        )
    if isinstance(term, Let):
        return f"let {term.var} = {pretty(term.value)} in {pretty(term.body)}"
    if isinstance(term, BinOp):
        op = "=" if term.op == "==" else term.op
        return f"{_atom(term.left)} {op} {_atom(term.right)}"
    if isinstance(term, Not):
        return f"not {_atom(term.expr)}"
    if isinstance(term, IsNull):
        return f"{_atom(term.expr)} is NULL"
    if isinstance(term, Zero):
        open_b, close_b = _MONOID_BRACES.get(term.monoid_name, ("", ""))
        if open_b:
            return f"{open_b}{close_b}"
        return f"zero[{term.monoid_name}]"
    if isinstance(term, Singleton):
        open_b, close_b = _MONOID_BRACES.get(term.monoid_name, ("{", "}"))
        return f"{open_b} {pretty(term.expr)} {close_b}"
    if isinstance(term, Merge):
        return f"{_atom(term.left)} {term.monoid.symbol} {_atom(term.right)}"
    if isinstance(term, Comprehension):
        return _pretty_comprehension(term)
    raise TypeError(f"cannot pretty-print {type(term).__name__}")


def _pretty_comprehension(comp: Comprehension) -> str:
    quals = []
    for qualifier in comp.qualifiers:
        if isinstance(qualifier, Generator):
            quals.append(f"{qualifier.var} <- {pretty(qualifier.domain)}")
        elif isinstance(qualifier, Filter):
            quals.append(pretty(qualifier.pred))
    body = pretty(comp.head)
    symbol = "" if comp.monoid_name == "set" else comp.symbol
    if quals:
        return f"{symbol}{{ {body} | {', '.join(quals)} }}"
    return f"{symbol}{{ {body} | }}"


def _atom(term: Term) -> str:
    """Parenthesize non-atomic operands."""
    text = pretty(term)
    if isinstance(term, (BinOp, If, Lambda, Let, Merge, Not)):
        return f"({text})"
    return text
