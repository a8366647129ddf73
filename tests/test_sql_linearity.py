"""The SQL lowering is linear in the query.

A value-position ``or`` / ``and`` states each operand once, so a chain of
them lowers to SQL proportional to its length in either nesting, and the
total flat-SQL text of any query — every corpus query, every sample of a
fixed qgen seed, the chains — stays within a constant factor of the
optimized plan's size.  A lowering that doubles per operator fails here
at a small depth, before it gets to exhaust memory at a large one.
"""

from __future__ import annotations

import dataclasses
import time
from functools import reduce

import pytest

from corpus import CORPUS
from repro.algebra.operators import operators
from repro.backends.shred import SqlSegment
from repro.calculus.terms import (
    BinOp,
    Extent,
    Not,
    Term,
    comprehension,
    const,
    path,
    subterms,
)
from repro.cli import DATABASES
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.schema import BOOL, INT, Schema
from repro.data.values import NULL, Record
from repro.oql.parser import MAX_NESTING
from repro.testing.fuzz import FuzzConfig, generate_sample

#: Flat-SQL bytes allowed per node of the optimized plan.  The corpus and
#: qgen's samples reach ≈ 63 (a record group key passes every payload
#: column of its table through a derived table); a 24-deep chain reaches
#: ≈ 34.  A lowering that states an operand twice exceeds it by depth 8.
BYTES_PER_NODE = 128
#: The chain depths checked, shallow first, to one operand past the
#: deepest chain the OQL parser accepts.
DEPTHS = (4, 8, 12, 16, 24, MAX_NESTING + 1)


def plan_size(plan) -> int:
    """Operators plus the term nodes of every expression they hold."""
    size = 0
    for op in operators(plan):
        size += 1
        for field in dataclasses.fields(op):
            value = getattr(op, field.name)
            for item in value if isinstance(value, tuple) else (value,):
                term = item[-1] if isinstance(item, tuple) else item  # Map
                if isinstance(term, Term):
                    size += sum(1 for _ in subterms(term))
    return size


def _flat_sql(compiled, db) -> list[str]:
    lowered, _ = compiled.target(db)
    return [n.segment.sql for n in operators(lowered) if isinstance(n, SqlSegment)]


def _assert_linear(compiled, db, what: str) -> None:
    size = plan_size(compiled.optimized)
    text = sum(map(len, _flat_sql(compiled, db)))
    assert text <= BYTES_PER_NODE * size, (what, text, size)


def _chain_db() -> Database:
    schema = Schema()
    schema.define_class("T", k=INT, b=BOOL)
    schema.define_extent("Ts", "T")
    db = Database(schema)
    db.add_extent(
        "Ts",
        [
            Record(k=NULL, b=True),
            Record(k=0, b=NULL),
            Record(k=5, b=False),
            Record(k=30, b=True),
            Record(k=3, b=NULL),
        ],
    )
    return db


def chain(op: str, depth: int, nesting: str) -> Term:
    """*depth* comparisons ``t.k > i`` joined by *op*, nested to the left
    (``((a op b) op c) ...``) or to the right (``a op (b op (c ...))``);
    a NULL ``k`` makes every operand NULL on that row."""
    parts = [BinOp(">", path("t", "k"), const(i)) for i in range(depth)]
    if nesting == "left":
        return reduce(lambda a, b: BinOp(op, a, b), parts)
    return reduce(lambda a, b: BinOp(op, b, a), reversed(parts))


def chain_query(op: str, depth: int, nesting: str, place: str) -> Term:
    body = chain(op, depth, nesting)
    scan = ("t", Extent("Ts"))
    if place == "head":
        return comprehension("bag", body, scan)
    # ``not`` keeps the chain in a value position under the aggregate
    return comprehension("sum", const(1), scan, Not(body))


CHAINS = [
    (op, nesting, place)
    for op in ("or", "and")
    for nesting in ("left", "right")
    for place in ("head", "count")
]


def _chain_id(case) -> str:
    return "-".join(case)


class TestChains:
    @pytest.mark.parametrize("case", CHAINS, ids=_chain_id)
    def test_a_chain_lowers_linearly(self, case):
        op, nesting, place = case
        db = _chain_db()
        pipeline = QueryPipeline(db, OptimizerOptions(backend="sqlite"))
        for depth in DEPTHS:
            compiled = pipeline.compile_term(chain_query(op, depth, nesting, place))
            assert _flat_sql(compiled, db), "the chain must lower"
            _assert_linear(compiled, db, f"depth {depth}")

    @pytest.mark.parametrize("depth", [24, MAX_NESTING + 1])
    @pytest.mark.parametrize("case", CHAINS, ids=_chain_id)
    def test_a_deep_chain_answers_as_memory_does(self, case, depth):
        op, nesting, place = case
        db = _chain_db()
        term = chain_query(op, depth, nesting, place)
        memory = QueryPipeline(db).compile_term(term).execute(db)
        start = time.perf_counter()
        compiled = QueryPipeline(db, OptimizerOptions(backend="sqlite")).compile_term(
            term
        )
        answer = compiled.execute(db)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert repr(answer) == repr(memory)
        assert elapsed_ms < 50.0


class TestLinearity:
    @pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
    def test_corpus_query(self, query):
        db = DATABASES[query.family]()
        compiled = QueryPipeline(db, OptimizerOptions(backend="sqlite")).compile_oql(
            query.oql
        )
        _assert_linear(compiled, db, query.name)

    def test_qgen_samples(self):
        config = FuzzConfig(seed=7)
        for iteration in range(200):
            source, _, db = generate_sample(config, iteration)
            compiled = QueryPipeline(
                db, OptimizerOptions(backend="sqlite")
            ).compile_oql(source)
            _assert_linear(compiled, db, source)
