"""Kernels and physical plans are linear in the query.

Beside the SQL lowering's linearity (``test_sql_linearity.py``): every
generated kernel's source stays within a constant plus a constant per node
of the term it was lowered from, and a physical plan within a constant
factor of the logical plan it was planned from — over every corpus query,
every sample of a fixed qgen seed and a chain of path aggregates nested in
each other's heads, whose folds nest as generator expressions.  An emitter
that states a subterm twice per level fails here at a small depth.
"""

from __future__ import annotations

import pytest

from corpus import CORPUS
from repro.algebra.operators import operators
from repro.calculus.terms import (
    BinOp,
    Comprehension,
    Extent,
    Generator,
    Term,
    Var,
    comprehension,
    path,
    subterms,
)
from repro.cli import DATABASES
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.schema import INT, Schema, bag_of
from repro.data.values import BagValue, Record
from repro.engine import compile as compile_module
from repro.engine.compile import ExprCompiler
from repro.testing.fuzz import FuzzConfig, generate_sample

#: Kernel source bytes: the wrapper every kernel has, then per term node.
#: Over the corpus and qgen a one-node kernel is ≈ 310 bytes (nearly all
#: wrapper) and a term of ten nodes or more ≤ ≈ 115 a node; the nested
#: chain ≈ 25 a node at every depth.  A fold that states a singleton twice
#: exceeds the bound by depth 8.
BASE_BYTES = 300
BYTES_PER_NODE = 150
#: Physical operators per logical operator: a shared nest adds its own
#: node and a stand-in leaf; everything else maps one to one or fuses.
PHYSICAL_PER_LOGICAL = 2
#: Depths of the nested path-aggregate chain.
DEPTHS = (2, 4, 8, 12)


def _nodes(term: Term) -> int:
    return sum(1 for _ in subterms(term))


@pytest.fixture()
def kernel_sizes(monkeypatch):
    """``(source bytes, term nodes)`` of every kernel lowered from now on."""
    sizes: list[tuple[int, int]] = []
    sources: list[str] = []
    factory = compile_module._factory
    monkeypatch.setattr(
        compile_module, "_factory", lambda source: sources.append(source) or factory(source)
    )
    lower = ExprCompiler._lower

    def spy(self, term, predicate):
        del sources[:]
        kernel = lower(self, term, predicate)
        if sources:
            sizes.append((len(sources[-1]), _nodes(term)))
        return kernel

    monkeypatch.setattr(ExprCompiler, "_lower", spy)
    return sizes


def _physical_nodes(op) -> int:
    return 1 + sum(_physical_nodes(child) for child in op.children())


def _assert_linear(compile_query, db, sizes, what: str):
    """Compile a query (which lowers its kernels) and plan it: every kernel
    lowered on the way, and the plan, within bounds.  Returns the query."""
    del sizes[:]
    compiled = compile_query()
    physical = compiled.physical(db)
    assert sizes, what
    for source_bytes, nodes in sizes:
        assert source_bytes <= BASE_BYTES + BYTES_PER_NODE * nodes, (what, source_bytes, nodes)
    logical = sum(1 for _ in operators(compiled.optimized))
    assert _physical_nodes(physical) <= PHYSICAL_PER_LOGICAL * logical, what
    return compiled


class TestLinearity:
    @pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
    def test_corpus_query(self, query, kernel_sizes):
        db = DATABASES[query.family]()
        pipeline = QueryPipeline(db)
        _assert_linear(
            lambda: pipeline.compile_oql(query.oql), db, kernel_sizes, query.name
        )

    def test_qgen_samples(self, kernel_sizes):
        config = FuzzConfig(seed=7)
        for iteration in range(200):
            source, _, db = generate_sample(config, iteration)
            pipeline = QueryPipeline(db)
            _assert_linear(
                lambda: pipeline.compile_oql(source), db, kernel_sizes, source
            )


def _chain_db() -> Database:
    schema = Schema()
    schema.define_class("E", k=INT, xs=bag_of(INT))
    schema.define_extent("Es", "E")
    db = Database(schema)
    db.add_extent(
        "Es",
        [Record(k=k, xs=BagValue(range(k % 4))) for k in range(6)],
    )
    return db


def nested_aggregates(depth: int) -> Term:
    """``sum{ x1 + sum{ x2 + … | x2 <- e.xs } | x1 <- e.xs }`` per ``e``:
    *depth* path aggregates, each in the head of the one around it."""
    xs = path("e", "xs")
    inner: Term = Var(f"x{depth}")
    for level in range(depth, 0, -1):
        body = inner if level == depth else BinOp("+", Var(f"x{level}"), inner)
        inner = Comprehension("sum", body, (Generator(f"x{level}", xs),))
    return comprehension("bag", inner, ("e", Extent("Es")))


class TestNestedFolds:
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_nested_path_aggregates_fold_linearly(self, depth, kernel_sizes):
        db = _chain_db()
        term = nested_aggregates(depth)
        pipeline = QueryPipeline(db)
        compiled = _assert_linear(
            lambda: pipeline.compile_term(term), db, kernel_sizes, f"depth {depth}"
        )
        # The chain is one fused fold, nested as deep as the query.
        physical = compiled.physical(db)
        assert physical.explain().count("Map(") == 1
        assert physical.child.eval_mode() == "compiled"
        naive = QueryPipeline(db, OptimizerOptions(unnest=False))
        assert repr(compiled.execute(db)) == repr(
            naive.compile_term(term).execute(db)
        )
