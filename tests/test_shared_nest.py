"""``PSharedNest`` against the same spine built plainly.

Every case builds one spine twice over the same inputs — *plain*, its leaf
the left rows themselves, and *shared*, its leaf the stand-in a
``PSharedNest`` feeds with one representative per distinct binding — and
holds both to one outcome at chunk sizes 1, 7 and 1024: the same group rows
in the same order (floats compared on their repr, collections element by
element) or the same error; under a governor, the same trip.

Three spines stand for the corpus sites: a nest over an outer hash join
(``join``), the auction shape — two nests over an outer-unnest over a cross
join (``unnest``) — and a nest over a join over a group-join (``nested``);
a fourth unnests the left row's *own* collection (``own_collection``), so
that the binding is a collection.

Each check was shown to bite by breaking the operator and watching it fail;
the mutation is named beside the test it kills.
"""

from __future__ import annotations

import pytest

from repro.calculus.monoids import monoid as lookup_monoid
from repro.calculus.terms import BinOp, Const, path, var
from repro.data.database import Database
from repro.data.values import NULL, BagValue, CollectionValue, Record, SetValue
from repro.engine.batch import chunk_rows
from repro.engine.governor import CancelToken, Governor
from repro.engine.physical import (
    PGroupJoin,
    PHashJoin,
    PHashNest,
    PMaterializedSource,
    PSharedNest,
    PUnnest,
    PhysicalOperator,
    _Context,
)
from repro.errors import BudgetExceeded, QueryCancelled
from tests.test_groupjoin import KEYED, KEYLESS, typing_of

BATCH_SIZES = (1, 7, 1024)
TRUE = Const(True)
L_KEY, R_KEY, R_VALUE = path("l", "k"), path("r", "k"), path("r", "v")


class Rows(PhysicalOperator):
    """A leaf replaying fixed rows, chunked at the context's batch size; a
    row that is an exception is raised in its place."""

    def __init__(self, context: _Context, rows: list):
        super().__init__()
        self._context = context
        self._rows = rows

    def _stream(self):
        for row in self._rows:
            if isinstance(row, Exception):
                raise row
            yield row

    def batches(self):
        for chunk in chunk_rows(self._stream(), self._context.batch_size):
            yield self._emit_chunk(chunk)


def _lefts(*keys, extra=None):
    """Left rows ``{l: Record(k=…, n=position)}``; ``n`` keeps value-equal
    rows apart unless *extra* pins it (one identity, at two occurrences)."""
    return [
        {"l": Record(k=k, n=i if extra is None else extra)}
        for i, k in enumerate(keys)
    ]


def _rights(*pairs):
    return [{"r": Record(k=k, v=v)} for k, v in pairs]


def _nest(context, child, monoid_name, head, group_by, null_vars, out, pred=TRUE):
    return PHashNest(
        context, child, lookup_monoid(monoid_name), head, group_by, null_vars, out, pred,
        (False,) * len(group_by),
    )  # fmt: skip


def join_spine(monoid_name, head=R_VALUE, left_key=L_KEY):
    """``Γ(by l) ∘ =⋈[left_key = r.k]``: reads ``left_key`` of ``l``."""

    def build(context, leaf, rights):
        join = PHashJoin(
            context, leaf, Rows(context, rights), (left_key,), (R_KEY,), TRUE, ("r",), True,
            KEYED,
        )  # fmt: skip
        return _nest(context, join, monoid_name, head, ("l",), ("r",), "m")

    return build


def unnest_spine(monoid_name="sum"):
    """The auction shape: ``Γ(⊕ by l) ∘ Γ(some by l,r) ∘
    =μ[t <- r.tags, t = l.k] ∘ =⋈_true`` — counts the right rows one of
    whose tags is ``l.k``."""

    def build(context, leaf, rights):
        cross = PHashJoin(
            context, leaf, Rows(context, rights), (), (), TRUE, ("r",), True, KEYLESS
        )
        tags = PUnnest(
            context, cross, path("r", "tags"), "t", BinOp("==", var("t"), L_KEY), True
        )
        some = _nest(context, tags, "some", TRUE, ("l", "r"), ("t",), "s")
        return _nest(context, some, monoid_name, R_VALUE, ("l",), ("r",), "m", var("s"))

    return build


def own_collection_spine(monoid_name, pred_op="=="):
    """``Γ(⊕ t by l) ∘ =μ[t <- l.k, t op r.k] ∘ =⋈_true``: folds the
    elements of the row's own collection ``l.k`` that meet a right row."""

    def build(context, leaf, rights):
        cross = PHashJoin(
            context, leaf, Rows(context, rights), (), (), TRUE, ("r",), True, KEYLESS
        )
        own = PUnnest(context, cross, L_KEY, "t", BinOp(pred_op, var("t"), R_KEY), True)
        return _nest(context, own, monoid_name, var("t"), ("l",), ("t",), "m")

    return build


def nested_spine():
    """``Γ(bag by l) ∘ =⋈[l.k = r.k, r.v > a] ∘ (Γ(avg→a by l) ∘ =⋈[l.k =
    q.k])`` with the inner pair a group-join, as in ``nested_in_nested``."""

    def build(context, leaf, rights):
        others = [{"q": row["r"]} for row in rights]
        avg = PGroupJoin(
            context, leaf, Rows(context, others),
            (L_KEY,), (path("q", "k"),), TRUE, ("q",),
            lookup_monoid("avg"), path("q", "v"), ("l",), ("q",), "a", TRUE, KEYED,
        )  # fmt: skip
        join = PHashJoin(
            context, avg, Rows(context, rights), (L_KEY,), (R_KEY,),
            BinOp(">", R_VALUE, var("a")), ("r",), True, KEYED,
        )  # fmt: skip
        return _nest(context, join, "bag", R_VALUE, ("l",), ("r",), "m")

    return build


def _pair(context, spine, lefts, rights, bindings=(L_KEY,), columns=("l",)):
    """The plain spine over the left rows, and the shared operator."""
    source = PMaterializedSource(context, columns)
    shared = PSharedNest(
        context, Rows(context, lefts), source, spine(context, source, rights), bindings
    )
    return {"plain": spine(context, Rows(context, lefts), rights), "shared": shared}


def _show(value):
    """Exact rendering: repr for scalars (so 0.1+0.2 != 0.3 and 2 != 2.0),
    element order for collections."""
    if isinstance(value, CollectionValue):
        return (type(value).__name__, [_show(v) for v in value.elements()])
    return repr(value)


def _outcome(op):
    """``("rows", …)`` or ``("error", class, text)`` for one operator."""
    try:
        rows = list(op.rows())
    except Exception as exc:  # noqa: BLE001 - errors are part of the contract
        return ("error", type(exc).__name__, str(exc))
    return ("rows", [(_show(row["l"]), _show(row["m"])) for row in rows])


def _compare(
    spine, lefts, rights, representatives=None, occurring=frozenset(), **kwargs
):
    """Both forms agree at every chunk size; returns the outcome.
    *representatives*, when given, is how many rows the shared spine must
    have been fed; *occurring* names the left variables whose rows carry an
    occurrence."""
    outcomes = {}
    for size in BATCH_SIZES:
        context = _Context(Database(), batch_size=size, typing=typing_of(occurring))
        ops = _pair(context, spine, lefts, rights, **kwargs)
        for name, op in ops.items():
            outcomes[name, size] = _outcome(op)
        if representatives is not None:
            assert ops["shared"].source.rows_produced == representatives
    reference = outcomes["plain", 1024]
    assert all(o == reference for o in outcomes.values()), outcomes
    return reference


def _values(outcome):
    assert outcome[0] == "rows", outcome
    return [value for _, value in outcome[1]]


RIGHTS = _rights((1, 10), (2, 20), (1, 11), (3, 30), (2, 21))


class TestAgreement:
    def test_many_left_rows_per_binding_share_one_representative(self):
        # Mutations: emit only the representatives; never share.
        outcome = _compare(
            join_spine("sum"), _lefts(2, 1, 2, 3, 1, 2, 9), RIGHTS, representatives=4
        )
        assert _values(outcome) == ["41", "21", "41", "30", "21", "41", "0"]

    def test_all_bindings_distinct_feeds_every_row(self):
        outcome = _compare(join_spine("sum"), _lefts(3, 1, 2), RIGHTS, representatives=3)
        assert _values(outcome) == ["30", "21", "41"]

    def test_null_bindings_share_like_any_other(self):
        # Mutation: never share (the representative count).
        outcome = _compare(
            join_spine("sum"), _lefts(NULL, 1, NULL, 1), RIGHTS, representatives=2
        )
        assert _values(outcome) == ["0", "21", "0", "21"]

    def test_multi_expression_bindings(self):
        # Two expressions: rows share only when both agree.  Mutation: key
        # on the first expression alone.
        lefts = [
            {"l": Record(k=k, w=w, n=i)}
            for i, (k, w) in enumerate([(1, 1), (1, 2), (1, 1), (2, 1), (NULL, 1)])
        ]
        head = BinOp("*", R_VALUE, path("l", "w"))
        outcome = _compare(
            join_spine("sum", head=head),
            lefts,
            RIGHTS,
            representatives=4,
            bindings=(L_KEY, path("l", "w")),
        )
        assert _values(outcome) == ["21", "42", "21", "41", "0"]

    def test_bindings_equal_as_dict_keys_but_not_in_kind_stay_apart(self):
        # 1, 1.0 and True hash alike; the head shows the difference.
        # Mutation: key on identity_key alone.
        head = BinOp("+", R_VALUE, L_KEY)
        outcome = _compare(
            join_spine("sum", head=head),
            _lefts(1, 1.0, 1, 1.0),
            _rights((1, 10)),
            representatives=2,
        )
        assert _values(outcome) == ["11", "11.0", "11", "11.0"]

    def test_collection_bindings_are_compared_all_the_way_down(self):
        # {{1, 2}} and {{1.0, 2}} are equal — and hash alike — as values; the
        # sums over them are 3 and 3.0.  Mutation: tag the class of the
        # top-level value only.
        lefts = _lefts(BagValue([1, 2]), BagValue([1.0, 2]), BagValue([1, 2]))
        outcome = _compare(
            own_collection_spine("sum"),
            lefts,
            _rights((1, 0), (2, 0), (5, 0)),
            representatives=2,
        )
        assert _values(outcome) == ["3", "3.0", "3"]

    def test_record_bindings_are_compared_all_the_way_down(self):
        # Same mutation, through a record (and a record in a list).
        head = BinOp("+", R_VALUE, path("l", "k", "a"))
        keys = [Record(a=1), Record(a=1.0), Record(a=True), Record(a=1)]
        outcome = _compare(
            join_spine("sum", head=head, left_key=path("l", "k", "a")),
            _lefts(*keys),
            _rights((1, 10)),
            representatives=3,
        )
        assert _values(outcome) == ["11", "11.0", "11", "11"]

    def test_a_float_zero_binding_keeps_its_sign(self):
        # 0.0 == -0.0; their products are told apart on the repr.
        # Mutation: drop the sign from exact_key.
        outcome = _compare(
            join_spine("list", head=BinOp("*", R_VALUE, L_KEY)),
            _lefts(0.0, -0.0, 0.0),
            _rights((0.0, 10)),
            representatives=2,
        )
        assert [v[1] for v in _values(outcome)] == [["0.0"], ["-0.0"], ["0.0"]]

    def test_a_set_binding_keeps_its_iteration_order(self):
        # Equal sets that iterate differently unnest differently.
        # Mutation: key a set by the frozenset of its members' keys.
        lefts = _lefts(SetValue([1, 2]), SetValue([2, 1]), SetValue([1, 2]))
        outcome = _compare(
            own_collection_spine("list", "!="), lefts, _rights((0, 0)), representatives=2
        )
        assert [v[1] for v in _values(outcome)] == [["1", "2"], ["2", "1"], ["1", "2"]]

    def test_empty_left_yields_no_group(self):
        assert _compare(join_spine("sum"), [], RIGHTS, representatives=0) == ("rows", [])

    def test_empty_right_pads_every_row_to_zero(self):
        assert _values(_compare(join_spine("sum"), _lefts(1, 1, 2), [])) == ["0"] * 3
        assert _values(_compare(join_spine("set"), _lefts(1, 1), [])) == [
            ("SetValue", [])
        ] * 2
        assert _values(_compare(unnest_spine(), _lefts(1, 1), [])) == ["0", "0"]

    @pytest.mark.parametrize(
        ("monoid_name", "expected"),
        [
            ("sum", ["21", "20", "21", "21"]),
            ("bag", [
                ("BagValue", ["10", "11"]),
                ("BagValue", ["20"]),
                ("BagValue", ["10", "11"]),
                ("BagValue", ["10", "11"]),
            ]),
            ("set", [
                ("SetValue", ["10", "11"]),
                ("SetValue", ["20"]),
                ("SetValue", ["10", "11"]),
                ("SetValue", ["10", "11"]),
            ]),
            ("max", ["11", "20", "11", "11"]),
        ],
    )  # fmt: skip
    def test_one_identity_at_two_occurrences_shares_its_binding(
        self, monoid_name, expected
    ):
        # Rows 0 and 2 are one identity at two positions of a bag, and row 3
        # shares their binding without being them: one representative per
        # binding, every row its own group.  Mutation: key the spine's
        # groups on the variable, not its occurrence (the plain spine then
        # folds rows 0 and 2 into one group: sum gives 42, in 3 rows).
        lefts = _lefts(1, 2, 1, extra=0) + [{"l": Record(k=1, n=7)}]
        lefts = [{**row, "l#": pos} for pos, row in enumerate(lefts)]
        rights = _rights((1, 10), (2, 20), (1, 11))
        outcome = _compare(
            join_spine(monoid_name),
            lefts,
            rights,
            representatives=2,
            occurring=frozenset({"l"}),
        )
        assert _values(outcome) == expected

    def test_float_sum_and_avg_fold_in_stream_order(self):
        rights = _rights((1, 0.1), (1, 0.2), (1, 0.3), (2, 1e16), (2, 1.0), (2, -1e16))
        lefts = _lefts(1, 2, 1, 2)
        assert _values(_compare(join_spine("sum"), lefts, rights)) == [
            repr(0.1 + 0.2 + 0.3),
            repr(1e16 + 1.0 - 1e16),
        ] * 2
        assert _values(_compare(join_spine("avg"), lefts, rights)) == [
            repr((0.0 + 0.1 + 0.2 + 0.3) / 3),
            repr((0.0 + 1e16 + 1.0 - 1e16) / 3),
        ] * 2

    def test_list_and_bag_keep_build_order(self):
        rights = _rights((1, "c"), (2, "x"), (1, "a"), (1, "b"))
        for name in ("list", "bag"):
            values = _values(_compare(join_spine(name), _lefts(1, 2, 1), rights))
            assert [v[1] for v in values] == [["'c'", "'a'", "'b'"], ["'x'"]] * 1 + [
                ["'c'", "'a'", "'b'"]
            ]

    def test_the_auction_shape(self):
        rights = [
            {"r": Record(tags=SetValue(tags), v=1, n=i)}
            for i, tags in enumerate([("a", "b"), ("b",), (), ("a", "b", "c"), ("c",)])
        ]
        lefts = _lefts("a", "b", "a", "z", "b", "b", NULL)
        outcome = _compare(unnest_spine(), lefts, rights, representatives=4)
        assert _values(outcome) == ["2", "3", "2", "0", "3", "3", "0"]

    def test_a_group_join_inside_the_spine(self):
        rights = _rights((1, 10), (1, 30), (2, 5), (1, 20), (2, 7))
        outcome = _compare(nested_spine(), _lefts(1, 2, 1, 3, 2), rights, representatives=3)
        above_avg = [
            ("BagValue", ["30"]),
            ("BagValue", ["7"]),
            ("BagValue", ["30"]),
            ("BagValue", []),
            ("BagValue", ["7"]),
        ]
        assert _values(outcome) == above_avg

    def test_a_selection_in_the_spine_drops_every_row_of_a_binding(self):
        # Mutation: hand a dropped binding's rows a missing value.
        from repro.engine.physical import PSelect

        def spine(context, leaf, rights):
            inner = join_spine("sum")(context, leaf, rights)
            inner.out_var = "a"
            kept = PSelect(context, inner, BinOp(">", var("a"), Const(25)))
            join = PHashJoin(
                context, kept, Rows(context, rights), (L_KEY,), (R_KEY,), TRUE, ("r",), True,
                KEYED,
            )  # fmt: skip
            return _nest(context, join, "max", R_VALUE, ("l",), ("r",), "m")

        outcome = _compare(spine, _lefts(1, 2, 1, 3, 2), RIGHTS, representatives=3)
        assert _values(outcome) == ["21", "30", "21"]
        assert [row[0] for row in outcome[1]] == [
            _show(row["l"]) for row in _lefts(1, 2, 1, 3, 2) if row["l"]["k"] != 1
        ]


class TestFaults:
    DIVIDE = BinOp("/", Const(100), R_VALUE)

    def test_binding_fault_mid_chunk_is_left_to_the_spine(self):
        # The third row's binding faults.  The plain spine meets it as a
        # join key; with no right rows it would meet nothing.  Mutation:
        # raise the binding's fault from the drain.
        lefts = [
            {"l": Record(k=k, d=d, n=i)}
            for i, (k, d) in enumerate([(1, 1), (1, 1), (3, 0), (1, 1)])
        ]
        key = BinOp("%", L_KEY, path("l", "d"))
        spine = join_spine("sum", left_key=key)
        outcome = _compare(spine, lefts, _rights((0, 5)), bindings=(key,))
        assert outcome[:2] == ("error", "DivisionByZeroError")
        assert "modulo by zero" in outcome[2]

        def unreached(context, leaf, rights):
            # Reads the binding only where a left row meets a right row.
            join = PHashJoin(
                context, leaf, Rows(context, rights), (), (), BinOp("==", key, R_KEY),
                ("r",), True, KEYLESS,
            )
            return _nest(context, join, "sum", R_VALUE, ("l",), ("r",), "m")

        assert _values(_compare(unreached, lefts, [], bindings=(key,))) == ["0"] * 4

    def test_head_fault_for_one_binding_only(self):
        outcome = _compare(
            join_spine("sum", head=self.DIVIDE),
            _lefts(2, 1, 2, 1),
            _rights((1, 5), (1, 0), (2, 4)),
        )
        assert outcome[:2] == ("error", "DivisionByZeroError")
        assert "division by zero" in outcome[2]

    def test_head_fault_for_an_absent_binding_is_not_raised(self):
        outcome = _compare(
            join_spine("sum", head=self.DIVIDE), _lefts(2, 3, 2), _rights((1, 0), (2, 4))
        )
        assert _values(outcome) == ["25.0", "0", "25.0"]

    def test_spine_fault_wins_over_a_later_left_stream_fault(self):
        # Mutation: raise the held fault before running the spine.
        lefts = _lefts(2, 1, 2) + [ValueError("left stream broke")] + _lefts(3)
        outcome = _compare(
            join_spine("sum", head=self.DIVIDE), lefts, _rights((1, 0), (2, 4))
        )
        assert outcome[:2] == ("error", "DivisionByZeroError")

    def test_left_stream_fault_is_raised_when_the_spine_is_clean(self):
        # Mutation: swallow the held fault.
        lefts = _lefts(2, 1, 2) + [ValueError("left stream broke")]
        outcome = _compare(join_spine("sum"), lefts, RIGHTS)
        assert outcome == ("error", "ValueError", "left stream broke")


class TestGovernor:
    LEFTS = _lefts(1, 2, 1, 3, 2, 1)
    RIGHTS = _rights((1, 1), (2, 2), (1, 3), (1, 4), (2, 5), (4, 6))

    def _run(self, name, size, spine=None, **limits):
        limits.setdefault("tick_interval", 1)
        governor = Governor(**limits)
        context = _Context(Database(), governor=governor, batch_size=size)
        ops = _pair(context, spine or join_spine("bag"), self.LEFTS, self.RIGHTS)
        return _outcome(ops[name]), governor

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_fewer_work_units_when_nothing_trips(self, size):
        # Plain: 13 candidate pairs; shared: those of rows 0, 1 and 3.
        (got, g1), (want, g2) = (
            self._run("shared", size, max_rows=10_000),
            self._run("plain", size, max_rows=10_000),
        )
        assert got == want and got[0] == "rows"
        assert (g1.ticks, g2.ticks) == (5, 13)
        (got, g1), (want, g2) = (
            self._run("shared", size, unnest_spine(), max_rows=10_000),
            self._run("plain", size, unnest_spine(), max_rows=10_000),
        )
        assert got == want and g1.ticks <= g2.ticks

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_tiny_row_budget_trips_with_the_same_text(self, size):
        shared, _ = self._run("shared", size, max_rows=3)
        plain, _ = self._run("plain", size, max_rows=3)
        assert shared == plain
        assert shared[:2] == ("error", BudgetExceeded.__name__)
        assert "max_rows=3" in shared[2]

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_memory_budget(self, size):
        # Roomy: the shared form charges what the plain one does plus the
        # left rows it buffers.  Tiny: both trip.  Mutation: do not charge.
        (got, g1), (want, g2) = (
            self._run("shared", size, max_bytes=10**9),
            self._run("plain", size, max_bytes=10**9),
        )
        assert got == want and got[0] == "rows"
        assert g1.peak_bytes > g2.peak_bytes > 0
        for name in ("shared", "plain"):
            outcome, _ = self._run(name, size, max_bytes=64)
            assert outcome[:2] == ("error", BudgetExceeded.__name__), name
            assert "max_bytes=64" in outcome[2]

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_cancellation_is_observed(self, size):
        token = CancelToken()
        token.cancel()
        shared, _ = self._run("shared", size, token=token)
        plain, _ = self._run("plain", size, token=token)
        assert shared == plain
        assert shared[:2] == ("error", QueryCancelled.__name__)

    def test_a_trip_in_the_left_stream_is_not_held(self):
        # A governor error from L is the query's outcome at once: the
        # spine must not run first.  Mutation: hold every exception.
        # This is the one place the two forms may name different errors
        # (DESIGN §7, fault order): L is drained before the spine sees a
        # row, so a trip inside it beats the fault the streaming spine
        # raises on the rows delivered before the trip — as in any
        # blocking build.
        trip = BudgetExceeded("row budget exceeded", stage="execute")
        for size in BATCH_SIZES:
            ops = _pair(
                _Context(Database(), batch_size=size),
                join_spine("sum", head=TestFaults.DIVIDE),
                _lefts(1, 1) + [trip],
                _rights((1, 0)),
            )
            assert _outcome(ops["shared"])[:2] == ("error", BudgetExceeded.__name__)
            assert ops["shared"].source.rows_produced == 0
            assert _outcome(ops["plain"])[1] == "DivisionByZeroError"


class TestOperatorSurface:
    def test_runs_once_and_replays(self):
        context = _Context(Database())
        op = _pair(context, join_spine("sum"), _lefts(1, 2, 1, 1), RIGHTS)["shared"]
        first, second = list(op.rows()), list(op.rows())
        assert first == second and len(first) == 4
        spine, left = op.children()
        assert left.rows_produced == 4
        assert (spine.rows_produced, op.source.rows_produced) == (2, 2)
        assert op.rows_produced == 8 and op.batches_produced == 2

    def test_describe(self):
        context = _Context(Database())
        ops = _pair(
            context, join_spine("max"), [], [], bindings=(L_KEY, path("l", "w"))
        )
        assert ops["shared"].describe() == "SharedNest(max -> m per l.k, l.w)"
        assert ops["shared"].source.describe() == "Materialized(l)"
        assert ops["shared"].eval_mode() == "compiled"
