"""The group-unnest fold against the operator pair it replaces.

A nest over an outer-unnest of its own rows, ``Γ_{by l; null x} ∘
=μ_{x <- l.xs}``, is planned as one ``PMap`` binding the nest's variable to
a generated fold per row (:func:`repro.engine.planner.group_unnest_term`).
Every case plans the logical chain through the planner and builds the pair
``PHashNest(PUnnest(outer=True))`` by hand over the same rows, and holds
both to one outcome at chunk sizes 1, 7 and 1024: the same rows in the same
order (floats compared on their repr, collections element by element), or
the same error; under a governor, the same work units and bytes.

Beside each case, a mutation of the fold that it kills.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.algebra.operators import Nest, Operator, OuterUnnest
from repro.calculus.monoids import monoid as lookup_monoid
from repro.calculus.terms import (
    TRUE,
    BinOp,
    Comprehension,
    Const,
    Generator,
    RecordCons,
    Singleton,
    Var,
    path,
)
from repro.data.database import Database
from repro.data.values import NULL, BagValue, ListValue, Record
from repro.engine import compile as compile_module
from repro.engine.compile import ExprCompiler
from repro.engine.governor import CancelToken, Governor
from repro.engine.physical import PHashNest, PMap, PUnnest, _Context
from repro.engine.planner import PlannerOptions, plan_physical
from repro.errors import BudgetExceeded, QueryCancelled
from tests.test_groupjoin import BATCH_SIZES, Rows, _show, typing_of

XS, YS = path("l", "xs"), path("l", "ys")


@dataclass(frozen=True, eq=False)
class Leaf(Operator):
    """A logical leaf replaying fixed rows: what the planner builds over."""

    rows: tuple
    names: tuple[str, ...] = ("l",)

    def columns(self) -> tuple[str, ...]:
        return self.names

    def build_physical(self, context: _Context) -> Rows:
        return Rows(context, list(self.rows))


def _chain(rows, monoid_name, head=path("x", "v"), *, dom=XS, q=TRUE, p=TRUE):
    """``Γ^{⊕, head, p}_{by l; null x} ∘ =μ^{q}_{x <- dom}`` over *rows*."""
    unnest = OuterUnnest(Leaf(tuple(rows)), dom, "x", q)
    return Nest(unnest, monoid_name, head, ("l",), ("x",), "m", p)


def _pair(context: _Context, node: Operator):
    """*node* as the plain operators: nests hash, outer-unnests unnest."""
    if isinstance(node, Leaf):
        return node.build_physical(context)
    child = _pair(context, node.child)
    if isinstance(node, OuterUnnest):
        return PUnnest(context, child, node.path, node.var, node.pred, outer=True)
    return PHashNest(
        context,
        child,
        lookup_monoid(node.monoid_name),
        node.head,
        node.group_by,
        node.null_vars,
        node.out_var,
        node.pred,
        (False,) * len(node.group_by),
    )


def _outcome(op):
    try:
        rows = list(op.rows())
    except Exception as exc:  # noqa: BLE001 - errors are part of the contract
        return ("error", type(exc).__name__, str(exc))
    return ("rows", [(_show(row["l"]), _show(row["m"])) for row in rows])


def _forms(nest, size, occurring=frozenset(), **limits):
    """``{"fold": (operator, governor), "pair": (…)}`` at chunk *size*."""
    fold_governor = Governor(**limits) if limits else None
    fold = plan_physical(
        nest,
        Database(),
        PlannerOptions(batch_size=size),
        governor=fold_governor,
        occurring=typing_of(occurring),
    )
    assert isinstance(fold, PMap), fold.explain()
    pair_governor = Governor(**limits) if limits else None
    context = _Context(
        Database(), governor=pair_governor, batch_size=size, typing=typing_of(occurring)
    )
    return {"fold": (fold, fold_governor), "pair": (_pair(context, nest), pair_governor)}


def _compare(nest, occurring=frozenset(), fold_only=False, pair_only=False):
    """Both forms (or one of them) agree at every chunk size; returns the
    outcome."""
    outcomes = {
        (name, size): _outcome(op)
        for size in BATCH_SIZES
        for name, (op, _) in _forms(nest, size, occurring).items()
        if not (fold_only and name == "pair" or pair_only and name == "fold")
    }
    reference = next(iter(outcomes.values()))
    assert all(o == reference for o in outcomes.values()), outcomes
    return reference


def _values(outcome):
    assert outcome[0] == "rows", outcome
    return [value for _, value in outcome[1]]


def _row(xs, k=0, **more):
    return {"l": Record(k=k, xs=xs, **more)}


def _items(*values):
    return ListValue([Record(v=v) for v in values])


class TestAgreement:
    def test_null_path_empty_collection_and_null_element(self):
        # Mutation: drop the ``x is not NULL`` filter (count and bag then
        # take the NULL element).
        rows = [_row(NULL), _row(_items()), _row(ListValue([NULL, Record(v=4)]))]
        assert _values(_compare(_chain(rows, "sum", Const(1)))) == ["0", "0", "1"]
        assert _values(_compare(_chain(rows, "bag"))) == [
            ("BagValue", []),
            ("BagValue", []),
            ("BagValue", ["4"]),
        ]

    def test_avg_of_nothing_is_null(self):
        # Mutation: return the zero carrier unfinalized.
        rows = [_row(NULL), _row(_items()), _row(_items(1, 2))]
        assert _values(_compare(_chain(rows, "avg"))) == ["NULL", "NULL", "1.5"]

    @pytest.mark.parametrize(
        ("monoid_name", "expected"),
        [
            ("sum", "17"),
            ("bag", ("BagValue", ["5", "5", "7"])),
            ("list", ("ListValue", ["5", "5", "7"])),
            ("set", ("SetValue", ["5", "7"])),
        ],
    )
    def test_an_element_held_twice_counts_twice(self, monoid_name, expected):
        # Mutation: iterate a bag domain by its distinct elements.
        xs = BagValue([Record(v=5), Record(v=7), Record(v=5)])
        dom = path("l", "xs") if monoid_name != "list" else path("l", "ys")
        rows = [_row(xs, ys=_items(5, 5, 7))]
        assert _values(_compare(_chain(rows, monoid_name, dom=dom))) == [expected]

    def test_one_object_twice_in_a_bag_extent_is_two_rows(self):
        # Rows 0 and 2 are one object at two occurrences of a bag extent:
        # two groups, two rows.  Mutation: refuse the fold where ``L``
        # carries occurrences.
        same = Record(k=1, xs=_items(3, 4))
        rows = [
            {"l": same, "l#": 0},
            {"l": Record(k=2, xs=_items(9)), "l#": 1},
            {"l": same, "l#": 2},
        ]
        nest = _chain(rows, "sum")
        assert _values(_compare(nest, frozenset({"l"}))) == ["7", "9", "7"]

    def test_list_and_bag_keep_stream_order(self):
        # Mutation: build the collection from the kept list reversed.
        rows = [_row(_items("c", "a", "b")), _row(_items("x"))]
        for name in ("list", "bag"):
            first, second = _values(_compare(_chain(rows, name)))
            assert first[1] == ["'c'", "'a'", "'b'"] and second[1] == ["'x'"]

    def test_float_sums_fold_in_stream_order(self):
        # 1e16 + 1.0 - 1e16 is 0.0 folded left to right and 1.0 compensated.
        # Mutation: the builtin ``sum`` (compensated on Python 3.12).
        rows = [_row(_items(0.1, 0.2, 0.3)), _row(_items(1e16, 1.0, -1e16))]
        assert _values(_compare(_chain(rows, "sum"))) == [
            repr(0.1 + 0.2 + 0.3),
            repr(1e16 + 1.0 - 1e16),
        ]
        assert _values(_compare(_chain(rows, "avg"))) == [
            repr((0.0 + 0.1 + 0.2 + 0.3) / 3),
            repr((0.0 + 1e16 + 1.0 - 1e16) / 3),
        ]

    def test_unnest_predicate_and_nest_predicate(self):
        # q keeps v > 1 (it sees the element), p keeps v < l.k (it sees the
        # row too).  Mutation: drop either filter.
        rows = [_row(_items(1, 2, 3, 4), k=4), _row(_items(5, 1), k=9)]
        nest = _chain(
            rows,
            "sum",
            q=BinOp(">", path("x", "v"), Const(1)),
            p=BinOp("<", path("x", "v"), path("l", "k")),
        )
        assert _values(_compare(nest)) == ["5", "5"]

    def test_quantifiers(self):
        rows = [
            _row(_items(True, False)),
            _row(_items(True, NULL)),
            _row(_items()),
        ]
        assert _values(_compare(_chain(rows, "all"))) == ["False", "True", "True"]
        assert _values(_compare(_chain(rows, "some"))) == ["True", "True", "False"]

    def test_two_level_chain(self):
        # Γ_{by l} ∘ Γ_{by l,x} ∘ =μ_y ∘ =μ_x: per x, whether every y of the
        # row is smaller; per row, the bag of (x, that) pairs.  Mutation:
        # refuse a chain through an inner nest (the outer keeps the pair).
        rows = [
            _row(_items(3, 1), ys=_items(2)),
            _row(_items(), ys=_items(1)),
            _row(_items(5), ys=_items()),
            _row(NULL, ys=NULL),
        ]
        leaf = Leaf(tuple(rows))
        inner = Nest(
            OuterUnnest(OuterUnnest(leaf, XS, "x"), YS, "y"),
            "all",
            BinOp(">", path("x", "v"), path("y", "v")),
            ("l", "x"),
            ("y",),
            "a",
        )
        head = RecordCons((("X", path("x", "v")), ("A", Var("a"))))
        outer = Nest(inner, "bag", head, ("l",), ("x",), "m")
        assert _values(_compare(outer)) == [
            ("BagValue", ["<A=True, X=3>", "<A=False, X=1>"]),
            ("BagValue", []),
            ("BagValue", ["<A=True, X=5>"]),
            ("BagValue", []),
        ]


def _no_error_path(runtime, term, predicate):
    """A kernel error path that answers with an error of its own."""

    def kern(cols, n):
        return [], 0, AssertionError("the error path ran")

    return kern


class TestFaults:
    DIVIDE = BinOp("/", Const(12), path("x", "v"))

    def test_head_fault(self):
        # Mutation: swallow a fault inside the fold (fold what preceded it).
        rows = [_row(_items(1, 2)), _row(_items(3, 0, 4)), _row(_items(6))]
        outcome = _compare(_chain(rows, "sum", self.DIVIDE))
        assert outcome[:2] == ("error", "DivisionByZeroError")

    def test_filter_fault(self):
        rows = [_row(_items(1)), _row(_items(0))]
        outcome = _compare(_chain(rows, "sum", q=BinOp(">", self.DIVIDE, Const(1))))
        assert outcome[:2] == ("error", "DivisionByZeroError")

    def test_domain_that_is_not_a_collection(self):
        # The same class; the fold's text is the interpreter's, the pair's
        # the unnest's.  Mutation: a non-collection domain yields nothing.
        nest = _chain([_row(_items(1)), _row(7)], "sum")
        assert _compare(nest, fold_only=True) == (
            "error",
            "EvaluationError",
            "generator domain for 'x' is not a collection (int)",
        )
        assert _compare(nest, pair_only=True) == (
            "error",
            "EvaluationError",
            "unnest path evaluated to int",
        )

    def test_all_decided_before_a_fault(self, monkeypatch):
        # ``all`` stops at the deciding element, as the calculus does; the
        # pair evaluates every head of the group and meets the 0.  The
        # generated fold answers without its error path.  Mutation: fold
        # every element (the fault sends the chunk to the interpreter, whose
        # answer would hide it).
        head = BinOp(">", self.DIVIDE, Const(1))
        nest = _chain([_row(_items(20, 0))], "all", head)
        with monkeypatch.context() as patch:
            patch.setattr(compile_module, "_interpreted", _no_error_path)
            assert _values(_compare(nest, fold_only=True)) == ["False"]
        assert _values(_compare(nest, fold_only=True)) == ["False"]
        assert _compare(nest, pair_only=True)[:2] == ("error", "DivisionByZeroError")
        outcome = _compare(_chain([_row(_items(1, 0))], "all", head))
        assert outcome[:2] == ("error", "DivisionByZeroError")


class TestGovernor:
    ROWS = [_row(_items(*range(k))) for k in (3, 0, 5, 1, 4, 2, 6)]

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_same_work_units_when_nothing_trips(self, size):
        # Mutation: settle nothing (the pair ticks every unnested element).
        forms = _forms(_chain(self.ROWS, "sum"), size, max_rows=10_000)
        (fold, g1), (pair, g2) = forms["fold"], forms["pair"]
        assert _outcome(fold) == _outcome(pair)
        assert g1.ticks == g2.ticks == 21

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_row_budget_trips_with_the_same_text(self, size):
        # Mutation: return a trip in the settle as a value (rows, no error).
        for name, (op, governor) in _forms(
            _chain(self.ROWS, "sum"), size, max_rows=5
        ).items():
            outcome = _outcome(op)
            assert outcome[:2] == ("error", BudgetExceeded.__name__), name
            assert "more than 5 work units (max_rows=5)" in outcome[2]
            assert 5 < governor.ticks <= 5 + size * 6, name

    @pytest.mark.parametrize("size", BATCH_SIZES)
    @pytest.mark.parametrize("monoid_name", ["bag", "set", "sum"])
    def test_memory_budget(self, size, monoid_name):
        # A collection fold charges its kept elements as the nest charged
        # its groups; a primitive one charges nothing.  Mutation: charge
        # each chunk's kept elements from position 0 (the stride restarts).
        nest = _chain(self.ROWS, monoid_name)
        roomy = _forms(nest, size, max_bytes=10**9)
        peaks = {g.peak_bytes for op, g in roomy.values() if _outcome(op)[0] == "rows"}
        assert len(peaks) == 1 and (peaks.pop() > 0) == (monoid_name != "sum")
        if monoid_name == "sum":
            return
        texts = set()
        for name, (op, _) in _forms(nest, size, max_bytes=64).items():
            outcome = _outcome(op)
            assert outcome[:2] == ("error", BudgetExceeded.__name__), name
            texts.add(outcome[2])
        assert len(texts) == 1 and "max_bytes=64" in texts.pop()

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_cancel(self, size):
        token = CancelToken()
        token.cancel()
        for name, (op, _) in _forms(
            _chain(self.ROWS, "sum"), size, token=token, tick_interval=1
        ).items():
            assert _outcome(op)[:2] == ("error", QueryCancelled.__name__), name


def test_the_planner_keeps_the_pair_where_the_fold_does_not_apply():
    rows = (_row(_items(1)),)
    unnest = OuterUnnest(Leaf(rows, ("l",)), XS, "x")
    # Grouping by fewer columns than the unnest's input (triple nesting's
    # outer nest), and parallel plans.
    wide = Leaf(tuple({"l": r["l"], "k": 1} for r in rows), ("l", "k"))
    narrow = Nest(OuterUnnest(wide, XS, "x"), "sum", TRUE, ("l",), ("x",), "m")
    plain = Nest(unnest, "sum", Const(1), ("l",), ("x",), "m")
    assert isinstance(plan_physical(narrow, Database()), PHashNest)
    parallel = PlannerOptions(parallel=True)
    assert isinstance(plan_physical(plain, Database(), parallel), PHashNest)
    assert isinstance(plan_physical(plain, Database()), PMap)


def test_the_fold_is_derived_once_per_compiler():
    # Every execution replans; the fold's term must be the same object, so
    # its kernel is an identity hit.  Mutation: derive it per execution.
    nest = _chain([_row(_items(1))], "sum")
    compiler = ExprCompiler()
    terms = {
        id(plan_physical(nest, Database(), compiler=compiler).bindings[0][1])
        for _ in range(3)
    }
    assert len(terms) == 1


def test_a_fold_leaves_no_binding_behind():
    # ``sum{ m | m <- {{ x }} } + m``: after the fold, ``m`` is the column
    # again, not the fold's last binding.  Mutation: keep the fold's scope.
    fold = Comprehension("sum", Var("m"), (Generator("m", Singleton("bag", Var("x"))),))
    compiler = ExprCompiler()
    compiler.activate(_Context(Database())._terms, Database())
    kernel = compiler.compile_kernel(BinOp("+", fold, Var("m")))
    assert kernel.mode == "compiled"
    assert kernel.fn({"x": [5, 1], "m": [100, 7]}, 2) == ([105, 8], 2, None)
