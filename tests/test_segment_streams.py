"""SQL segments are row streams; the engine's operators fold and group.

A lowered ``Reduce`` root is the engine's ``Reduce`` over a segment of its
values — the kept heads in enumeration order, or the one aggregated row —
and a collection ``Nest`` is the engine's ``HashNest`` over a stream
segment.  The parity table checks every shape against the memory backend
and the calculus reference, ``repr``-equal, at three chunk sizes.
"""

from __future__ import annotations

import pytest

from repro.algebra.evaluator import evaluate_plan
from repro.algebra.operators import Nest, OuterJoin, Reduce, Scan
from repro.algebra.typing import type_plan
from repro.backends.shred import compile_segments, shredded_store
from repro.calculus.evaluator import evaluate
from repro.calculus.monoids import monoid
from repro.calculus.terms import (
    BinOp,
    Extent,
    TRUE,
    comprehension,
    const,
    path,
    record,
    var,
)
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.schema import BOOL, FLOAT, INT, STRING, Schema, list_of, set_of
from repro.data.values import NULL, ListValue, Record, SetValue
from repro.engine.batch import Chunk
from repro.engine.physical import PHashNest, PhysicalOperator, PReduce, _Context
from repro.engine.planner import PlannerOptions, execute as execute_plan
from repro.oql.translator import parse_and_translate

SIZES = (1, 7, 1024)


def _stream_db() -> Database:
    """Ts: two value-equal objects (the first and last), NULL and ``-0.0``
    values, a row (k = 2) whose ``v`` and ``b`` are NULL and one (k = 3)
    whose ``f`` is ``-0.0``, and a set holding NULL.  Us: NULL keys and
    values.  Ls: a list extent with a NULL ``n``, whose lists hold repeats
    in no sorted order; Ms: a shorter one, which SQLite's planner would
    make the outer loop of a join with Ls (so only ORDER BY keeps Ls's
    enumeration order)."""
    schema = Schema()
    schema.define_class(
        "T", k=INT, v=INT, f=FLOAT, s=STRING, b=BOOL, xs=set_of(INT)
    )
    schema.define_class("U", k=INT, v=INT)
    schema.define_class("L", n=INT, ys=list_of(INT))
    schema.define_class("M", k=INT)
    for name, cls in (("Ts", "T"), ("Us", "U"), ("Ls", "L"), ("Ms", "M")):
        schema.define_extent(name, cls)
    db = Database(schema)
    db.add_extent(
        "Ts",
        [
            Record(k=1, v=10, f=1.5, s="a", b=True, xs=SetValue([1, 2])),
            Record(k=1, v=NULL, f=-0.0, s="b", b=False, xs=SetValue([])),
            Record(k=2, v=NULL, f=NULL, s="a", b=NULL, xs=SetValue([3])),
            Record(k=NULL, v=7, f=0.5, s=NULL, b=True, xs=SetValue([NULL, 1])),
            Record(k=3, v=-4, f=-0.0, s="c", b=False, xs=SetValue([2, 5])),
            Record(k=1, v=10, f=1.5, s="a", b=True, xs=SetValue([1, 2])),
        ],
        kind="bag",
    )
    db.add_extent(
        "Us",
        [
            Record(k=1, v=5),
            Record(k=1, v=NULL),
            Record(k=3, v=8),
            Record(k=NULL, v=9),
            Record(k=1, v=5),
        ],
        kind="bag",
    )
    db.add_extent(
        "Ls",
        [
            Record(n=2, ys=ListValue([3, 1, 3])),
            Record(n=NULL, ys=ListValue([])),
            Record(n=7, ys=ListValue([9, 0, 8])),
            Record(n=2, ys=ListValue([4])),
        ],
        kind="list",
    )
    db.add_extent("Ms", [Record(k=7), Record(k=2)], kind="list")
    return db


_L, _M = ("l", Extent("Ls")), ("m", Extent("Ms"))
_LM = BinOp("==", path("l", "n"), path("m", "k"))
_YS = comprehension("list", var("y"), ("y", path("l", "ys")))  # l's list, in order
#: name -> (OQL or calculus term, the sqlite plan's root operator).
REDUCES = {
    # collection reduces: kept heads in enumeration order, folded above
    "set-null_heads": ("select distinct t.v from t in Ts", "Reduce(set / $v)"),
    "set-objects-pred": (
        'select distinct t from t in Ts where t.s = "a"', "Reduce(set / $v)"
    ),
    "bag-null_heads": ("select t.v from t in Ts", "Reduce(bag / $v)"),
    "bag-objects-pred": ("select t from t in Ts where t.k = 1", "Reduce(bag / $v)"),
    "bag-empty": ("select t.v from t in Ts where t.k > 9", "Reduce(bag / $v)"),
    "set-empty": ("select distinct t from t in Ts where t.k > 9", "Reduce(set / $v)"),
    "list-null_heads": (comprehension("list", path("l", "n"), _L), "Reduce(list / $v)"),
    "list-objects": (comprehension("list", var("l"), _L), "Reduce(list / $v)"),
    "list-pred": (
        comprehension(
            "list", var("y"), _L, ("y", path("l", "ys")), BinOp(">", var("y"), const(2))
        ),
        "Reduce(list / $v)",
    ),
    "list-join": (
        comprehension("list", path("m", "k"), _L, _M, _LM),
        "Reduce(list / $v)",
    ),
    # (a record head stays above the stream of (l, m) pairs)
    "list-join-residual_head": (
        comprehension("list", record(N=path("l", "n"), M=var("m")), _L, _M, _LM),
        "Reduce(list / (",
    ),
    "list-empty": (
        comprehension(
            "list", path("l", "n"), _L, BinOp(">", path("l", "n"), const(9))
        ),
        "Reduce(list / $v)",
    ),
}
#: the six primitive monoids over empty, NULL-only and non-empty input, and
#: the four numeric ones over -0.0: the filter that makes each input
_INPUTS = {
    "empty": " where t.k > 9",
    "null_only": " where t.k = 2",
    "values": "",
    "neg_zero": " where t.k = 3",
}
for _case, _where in _INPUTS.items():
    _attr = "f" if _case == "neg_zero" else "v"
    for _name in ("sum", "max", "min", "avg"):
        REDUCES[f"{_name}-{_case}"] = (
            f"{_name}( select t.{_attr} from t in Ts{_where} )",
            f"Reduce({_name} / $v)",
        )
    for _name, _form in (("all", "for all"), ("some", "exists")):
        if _case != "neg_zero":
            REDUCES[f"{_name}-{_case}"] = (
                f"{_form} t in ( select t from t in Ts{_where} ): t.b",
                f"Reduce({_name} / $v)",
            )

NESTS = {
    # null variables: a T with no U pads, and NULL keys meet nothing
    "null_vars": (
        "select struct( T: t, U: ( select u.v from u in Us where u.k = t.k ) ) "
        "from t in Ts",
        "HashNest(bag",
    ),
    "pred": (
        "select struct( T: t, U: ( select distinct u.v from u in Us "
        "where u.k = t.k and u.v > 4 ) ) from t in Ts",
        "HashNest(set",
    ),
    # keyed by (t, x): two keys, x NULL in one row
    "two_keys-null_key": (
        "select struct( T: t, X: x, U: ( select u.v from u in Us where u.k = x ) ) "
        "from t in Ts, x in t.xs",
        "HashNest(bag",
    ),
    # the first and last T are value-equal: two groups, not one
    "value_equal_objects": (
        "select struct( T: t, N: ( select distinct u from u in Us where u.k = t.k ) ) "
        "from t in Ts",
        "HashNest(set",
    ),
    "list_order": (
        comprehension("list", record(L=path("l", "n"), Y=_YS), _L), "HashNest(list"
    ),
    "list_order-join": (
        comprehension(
            "list",
            record(
                L=path("l", "n"),
                M=comprehension(
                    "list",
                    path("m", "ys"),
                    ("m", Extent("Ls")),
                    BinOp("==", path("m", "n"), path("l", "n")),
                ),
            ),
            _L,
        ),
        "HashNest(list",
    ),
    "bag_order": (comprehension("bag", _YS, _L), "HashNest(list"),
    # not a collection nest: a root Nest(min) whose k = 2 group is NULL-only
    "min_group": (
        "select distinct t.k, min(t.v) as M from Ts t group by t.k",
        "Reduce(set",
    ),
}
CASES = {
    **{f"reduce:{name}": case for name, case in REDUCES.items()},
    **{f"nest:{name}": case for name, case in NESTS.items()},
}


@pytest.fixture(scope="module")
def db():
    return _stream_db()


def _term(db, source):
    if isinstance(source, str):
        return parse_and_translate(source, db.schema)
    return source


class TestParity:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_answer_as_memory_and_the_calculus(self, db, name):
        source, operator = CASES[name]
        term = _term(db, source)
        reference = repr(evaluate(term, db))
        # (a calculus term skips the typechecker: a list extent types as a set)
        typecheck = isinstance(source, str)
        for size in SIZES:
            for backend in ("memory", "sqlite"):
                options = OptimizerOptions(
                    backend=backend, batch_size=size, typecheck=typecheck
                )
                compiled = QueryPipeline(db, options).compile_term(term)
                assert repr(compiled.execute(db)) == reference, (backend, size)
        explain = compiled.explain(db)
        assert f"[py]  {operator}" in explain and "[sql" in explain, explain

    @pytest.mark.parametrize("size", SIZES)
    def test_a_nest_predicate_holds_above_the_stream(self, db, size):
        # Γ with its own predicate, over the (t, u) pairs of an outer-join
        plan = Reduce(
            Nest(
                OuterJoin(
                    Scan("Ts", "t"),
                    Scan("Us", "u"),
                    BinOp("==", path("u", "k"), path("t", "k")),
                ),
                "list",
                path("u", "v"),
                ("t",),
                ("u",),
                "m",
                BinOp(">", path("u", "v"), path("t", "v")),
            ),
            "bag",
            record(T=var("t"), M=var("m")),
        )
        store = shredded_store(db)
        lowered = compile_segments(plan, store, type_plan(plan, db).occurring)
        options = PlannerOptions(batch_size=size)
        expected = repr(evaluate_plan(plan, db))
        assert repr(execute_plan(plan, db, options)) == expected
        assert repr(execute_plan(lowered, store, options)) == expected
        assert isinstance(lowered.child, Nest)  # not lowered: a HashNest


class _Chunks(PhysicalOperator):
    """A child whose chunk columns are tuples: read-only sequences."""

    def __init__(self, chunks):
        super().__init__()
        self._chunks = chunks

    def batches(self):
        yield from self._chunks


class TestReadOnlyColumns:
    """A bare ``Var`` head hands its readers the chunk's own column when
    every row is kept; ``PReduce.value``, ``partial_value`` and
    ``PHashNest.accumulate`` only read it."""

    CHUNKS = [
        Chunk({"k": (1, 2, 1), "v": (3, NULL, 4)}, 3),
        Chunk({"k": (2, NULL), "v": (5.5, -0.0)}, 2),
    ]
    VALUES = [3, NULL, 4, 5.5, -0.0]

    @pytest.mark.parametrize(
        "name", ["set", "bag", "list", "sum", "max", "min", "avg", "all", "some"]
    )
    def test_reduce(self, name):
        m = monoid(name)
        values = self.VALUES
        if name in ("all", "some"):
            values = [v if v is NULL else v > 4 for v in values]
        parts = (values[:3], values[3:])
        chunks = [Chunk({"v": tuple(part)}, len(part)) for part in parts]
        op = PReduce(_Context(None), _Chunks(chunks), m, var("v"), TRUE)
        kept = op._kept_heads(chunks[0].columns, chunks[0].length)
        assert kept[2] is chunks[0].columns["v"]
        reference = evaluate(
            comprehension(name, var("x"), ("x", const(ListValue(values)))), None
        )
        assert repr(op.value()) == repr(reference)
        assert repr(op.partial_value()) == repr(values)

    def test_hash_nest(self):
        op = PHashNest(
            _Context(None), _Chunks(self.CHUNKS), monoid("list"), var("v"),
            ("k",), (), "m", TRUE, (False,),
        )  # fmt: skip
        columns, count = op._groups()
        groups = [ListValue([3, 4]), ListValue([NULL, 5.5]), ListValue([-0.0])]
        assert count == 3
        assert repr(columns) == repr({"k": [1, 2, NULL], "m": groups})


class TestExplainAnalyze:
    @pytest.mark.parametrize(
        "source",
        [
            "sum( select t.v from t in Ts )",
            "select t.v from t in Ts where t.k = 1",
            NESTS["null_vars"][0],
        ],
    )
    def test_a_segment_counts_its_selects_rows(self, db, source):
        stats = QueryPipeline(
            db, OptimizerOptions(backend="sqlite", batch_size=2)
        ).run_oql_stats(source)
        [(sql, rows, _, _)] = stats.flat_queries
        [segment] = [o for o in stats.operators if o.operator.startswith("SqlSegment")]
        connection = shredded_store(db).connection
        [(count,)] = connection.execute(f"SELECT count(*) FROM ({sql})").fetchall()
        assert segment.rows_produced == rows == count
        assert segment.depth > 0  # an engine operator above folds or groups it
