"""``PGroupJoin`` against the operator pair it replaces.

Every case builds the same inputs three ways — ``PGroupJoin``,
``PHashNest(PHashJoin(…))`` keyed and keyless (the nested-loop join) — plus the
keyless ``PGroupJoin`` the planner emits when hash joins are off, and holds
all of them to one outcome at chunk sizes 1, 7 and 1024: the same group
rows in the same order (floats compared on their repr, collections element
by element), or the same error; and, under a governor, the same work units.
"""

from __future__ import annotations

import pytest

from repro.algebra.typing import PlanTypeChecker
from repro.calculus.evaluator import evaluate
from repro.calculus.monoids import monoid as lookup_monoid
from repro.calculus.terms import BinOp, Const, RecordCons, comprehension, conj, path
from repro.data.database import Database
from repro.data.schema import INT, RecordType
from repro.data.values import NULL, BagValue, CollectionValue, ListValue, Record, SetValue
from repro.engine.batch import chunk_rows
from repro.engine.governor import Governor
from repro.engine.physical import (
    Execution,
    PGroupJoin,
    PHashJoin,
    PHashNest,
    PhysicalOperator,
    _Context,
)
from repro.errors import BudgetExceeded

BATCH_SIZES = (1, 7, 1024)
TRUE = Const(True)
#: The bare flags of a one-key and a keyless hash table whose keys are
#: filed through identity_key.
KEYED, KEYLESS = ((False,), (False,)), ((), ())


def typing_of(occurring=frozenset()) -> PlanTypeChecker:
    """A plan typing that names the *occurring* variables and types no
    column, so every key is filed through identity_key."""
    typing = PlanTypeChecker()
    typing.occurring = frozenset(occurring)
    return typing


class Rows(PhysicalOperator):
    """A leaf replaying fixed rows, chunked at the context's batch size."""

    def __init__(self, context: _Context, rows: list[dict]):
        super().__init__(context)
        self._rows = rows

    def batches(self, ex):
        for chunk in chunk_rows(iter(self._rows), self._context.batch_size):
            yield self._emit_chunk(ex, chunk)


def _lefts(*keys, extra=None):
    """Left rows ``{l: Record(k=…, n=position)}``; ``n`` keeps value-equal
    keys apart unless *extra* pins it (one identity, at two occurrences)."""
    return [
        {"l": Record(k=k, n=i if extra is None else extra)}
        for i, k in enumerate(keys)
    ]


def _rights(*pairs):
    return [{"r": Record(k=k, v=v)} for k, v in pairs]


L_KEY, R_KEY = path("l", "k"), path("r", "k")
HEAD = path("r", "v")


def _operators(
    context,
    lefts,
    rights,
    monoid_name,
    *,
    left_keys=(L_KEY,),
    right_keys=(R_KEY,),
    residual=TRUE,
    head=HEAD,
    pred=TRUE,
):
    """The four forms over fresh leaves, by name."""
    monoid = lookup_monoid(monoid_name)
    nest_args = (monoid, head, ("l",), ("r",), "m", pred)
    equalities = [BinOp("==", a, b) for a, b in zip(left_keys, right_keys)]
    whole = conj(*equalities, residual)
    # Every key filed through identity_key, as an untyped plan files it.
    keyed, keyless = ((False,) * len(left_keys),) * 2, ((), ())

    def leaves():
        return Rows(context, lefts), Rows(context, rights)

    return {
        "group-join": PGroupJoin(
            context, *leaves(), left_keys, right_keys, residual, ("r",), *nest_args,
            keyed,
        ),
        "group-join-keyless": PGroupJoin(
            context, *leaves(), (), (), whole, ("r",), *nest_args, keyless
        ),
        "nest-hash-join": PHashNest(
            context,
            PHashJoin(
                context, *leaves(), left_keys, right_keys, residual, ("r",), True,
                keyed,
            ),
            *nest_args,
            (False,),
        ),
        "nest-nl-join": PHashNest(
            context,
            PHashJoin(context, *leaves(), (), (), whole, ("r",), True, keyless),
            *nest_args,
            (False,),
        ),
    }


def _show(value):
    """Exact rendering: repr for scalars (so 0.1+0.2 != 0.3), element
    order for collections."""
    if isinstance(value, CollectionValue):
        return (type(value).__name__, [_show(v) for v in value.elements()])
    return repr(value)


def _outcome(op, ex=None):
    """``("rows", …)`` or ``("error", class, text)`` for one operator (in
    execution *ex*, or a fresh one)."""
    try:
        rows = list(op.rows(ex))
    except Exception as exc:  # noqa: BLE001 - errors are part of the contract
        return ("error", type(exc).__name__, str(exc))
    return ("rows", [(_show(row["l"]), _show(row["m"])) for row in rows])


def _compare(lefts, rights, monoid_name, occurring=frozenset(), **kwargs):
    """All four forms agree at every chunk size; returns the outcome.
    *occurring* names the left variables whose rows carry an occurrence."""
    outcomes = {}
    for size in BATCH_SIZES:
        context = _Context(Database(), batch_size=size, typing=typing_of(occurring))
        for name, op in _operators(
            context, lefts, rights, monoid_name, **kwargs
        ).items():
            outcomes[name, size] = _outcome(op)
    reference = outcomes["nest-hash-join", 1024]
    assert all(o == reference for o in outcomes.values()), outcomes
    return reference


def _values(outcome):
    assert outcome[0] == "rows", outcome
    return [value for _, value in outcome[1]]


class TestAgreement:
    def test_one_group_per_left_row_in_first_seen_order(self):
        outcome = _compare(
            _lefts(2, 1, 3, 1),
            _rights((1, 10), (2, 20), (1, 11), (3, 30), (2, 21)),
            "sum",
        )
        assert _values(outcome) == ["41", "21", "30", "21"]

    @pytest.mark.parametrize(
        ("monoid_name", "expected"),
        [
            ("sum", ["21", "5", "21"]),
            ("bag", [
                ("BagValue", ["10", "11"]),
                ("BagValue", ["5"]),
                ("BagValue", ["10", "11"]),
            ]),
            ("list", [
                ("ListValue", ["10", "11"]),
                ("ListValue", ["5"]),
                ("ListValue", ["10", "11"]),
            ]),
            ("avg", ["10.5", "5.0", "10.5"]),
            ("set", [
                ("SetValue", ["10", "11"]),
                ("SetValue", ["5"]),
                ("SetValue", ["10", "11"]),
            ]),
            ("max", ["11", "5", "11"]),
        ],
    )  # fmt: skip
    def test_one_identity_at_two_occurrences_is_two_groups(
        self, monoid_name, expected
    ):
        # Rows 0 and 2 are one identity at two positions of a bag: two
        # groups, each folding the bucket once.  Mutation: key the groups
        # on the variable, not its occurrence (the nests then fold the
        # bucket twice into one group).
        lefts = [
            {**row, "l#": pos} for pos, row in enumerate(_lefts(1, 2, 1, extra=0))
        ]
        outcome = _compare(
            lefts,
            _rights((1, 10), (2, 5), (1, 11)),
            monoid_name,
            occurring=frozenset({"l"}),
        )
        assert _values(outcome) == expected

    def test_null_keys_on_either_side_never_join(self):
        outcome = _compare(
            _lefts(1, NULL, 2),
            _rights((NULL, 100), (1, 1), (NULL, 200), (2, 2)),
            "sum",
        )
        assert _values(outcome) == ["1", "0", "2"]

    def test_null_heads_are_skipped_by_primitive_and_kept_by_collection(self):
        rights = _rights((1, NULL), (1, 4), (2, NULL))
        assert _values(_compare(_lefts(1, 2, 3), rights, "sum")) == ["4", "0", "0"]
        assert _values(_compare(_lefts(1, 2, 3), rights, "avg")) == [
            "4.0",
            "NULL",
            "NULL",
        ]
        assert _values(_compare(_lefts(1, 2), rights, "bag")) == [
            ("BagValue", ["NULL", "4"]),
            ("BagValue", ["NULL"]),
        ]

    def test_empty_right_pads_every_left_row_to_zero(self):
        assert _values(_compare(_lefts(1, 2), [], "sum")) == ["0", "0"]
        assert _values(_compare(_lefts(1), [], "set")) == [("SetValue", [])]
        assert _values(_compare(_lefts(1), [], "all")) == ["True"]

    def test_empty_left_yields_no_group(self):
        assert _compare([], _rights((1, 1)), "sum") == ("rows", [])

    def test_multi_column_keys(self):
        lefts = [{"l": Record(a=a, b=b)} for a, b in [(1, 1), (1, 2), (NULL, 1)]]
        rights = [
            {"r": Record(a=a, b=b, v=v)}
            for a, b, v in [(1, 1, 5), (1, 2, 7), (1, 1, 6), (1, NULL, 9)]
        ]
        outcome = _compare(
            lefts,
            rights,
            "sum",
            left_keys=(path("l", "a"), path("l", "b")),
            right_keys=(path("r", "a"), path("r", "b")),
        )
        assert _values(outcome) == ["11", "7", "0"]

    def test_float_sum_and_avg_fold_in_bucket_order(self):
        # 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1 in floats: the fold order is
        # the build order of the bucket, for every left row that meets it.
        rights = _rights((1, 0.1), (1, 0.2), (1, 0.3), (2, 1e16), (2, 1.0), (2, -1e16))
        assert _values(_compare(_lefts(1, 2, 1), rights, "sum")) == [
            repr(0.1 + 0.2 + 0.3),
            repr(1e16 + 1.0 - 1e16),
            repr(0.1 + 0.2 + 0.3),
        ]
        assert _values(_compare(_lefts(1, 2), rights, "avg")) == [
            repr((0.0 + 0.1 + 0.2 + 0.3) / 3),
            repr((0.0 + 1e16 + 1.0 - 1e16) / 3),
        ]

    def test_list_and_bag_keep_build_order(self):
        rights = _rights((1, "c"), (2, "x"), (1, "a"), (1, "b"))
        for name in ("list", "bag"):
            first, second = _values(_compare(_lefts(1, 2), rights, name))
            assert first[1] == ["'c'", "'a'", "'b'"]
            assert second[1] == ["'x'"]

    def test_nest_predicate_filters_right_rows(self):
        outcome = _compare(
            _lefts(1, 2),
            _rights((1, 1), (1, 50), (2, 60), (1, 70)),
            "sum",
            pred=BinOp(">", path("r", "v"), Const(10)),
        )
        assert _values(outcome) == ["120", "60"]

    def test_residual_reading_both_sides_selects_per_left_row(self):
        lefts = [{"l": Record(k=1, cap=c)} for c in (5, 25, 100)]
        outcome = _compare(
            lefts,
            _rights((1, 10), (1, 20), (1, 30), (2, 1)),
            "sum",
            residual=BinOp("<", path("r", "v"), path("l", "cap")),
        )
        assert _values(outcome) == ["0", "30", "60"]

    @pytest.mark.parametrize("monoid_name", ["bag", "set"])
    @pytest.mark.parametrize("residual", [TRUE, BinOp("<", HEAD, path("l", "n"))])
    def test_plain_bags_and_struct_sets_answer_as_the_calculus(self, monoid_name, residual):
        # A scalar head folds a plain bag (BagValue.of_plain), a struct head
        # a set of structs, in every form: the bucket folds and the per-row
        # folds under a residual alike.
        head = HEAD if monoid_name == "bag" else RecordCons((("a", HEAD), ("b", R_KEY)))
        lefts = [{"l": Record(k=k, n=n)} for k, n in ((1, 50), (2, 50), (3, 50), (1, 11))]
        rights = _rights((1, 10), (2, 5), (1, 10), (1, 11), (2, 5), (1, 10))
        typing = typing_of()
        typing.columns = {"r": RecordType((("k", INT), ("v", INT)))}
        domain = ListValue([row["r"] for row in rights])
        expected = [
            _show(evaluate(comprehension(
                monoid_name, head, ("r", Const(domain)),
                BinOp("==", L_KEY, R_KEY), residual,
            ), None, {"l": row["l"]}))
            for row in lefts
        ]  # fmt: skip
        for size in BATCH_SIZES:
            context = _Context(Database(), batch_size=size, typing=typing)
            ops = _operators(
                context, lefts, rights, monoid_name, head=head, residual=residual
            )
            fold = ops["group-join"]._fold
            assert (fold == BagValue.of_plain) == (monoid_name == "bag")
            for name, op in ops.items():
                assert _values(_outcome(op)) == expected, (name, size)

    def test_quantifier_monoids(self):
        rights = _rights((1, True), (1, False), (2, True), (3, NULL))
        assert _values(_compare(_lefts(1, 2, 3, 4), rights, "all")) == [
            "False",
            "True",
            "True",
            "True",
        ]
        assert _values(_compare(_lefts(1, 2, 3, 4), rights, "some")) == [
            "True",
            "True",
            "False",
            "False",
        ]


class TestFaults:
    """The first fault in (left row, bucket position) order is raised, and
    only if some left row reaches it."""

    DIVIDE = BinOp("/", Const(100), path("r", "v"))

    def test_head_fault_mid_bucket(self):
        outcome = _compare(
            _lefts(2, 1),
            _rights((1, 5), (1, 0), (1, 2), (2, 4)),
            "sum",
            head=self.DIVIDE,
        )
        assert outcome[:2] == ("error", "DivisionByZeroError")

    def test_head_fault_in_an_unreached_bucket_is_not_raised(self):
        outcome = _compare(
            _lefts(2, 3), _rights((1, 0), (2, 4)), "sum", head=self.DIVIDE
        )
        assert _values(outcome) == ["25.0", "0"]

    def test_head_fault_behind_the_nest_predicate_is_not_raised(self):
        outcome = _compare(
            _lefts(1),
            _rights((1, 0), (1, 4)),
            "sum",
            head=self.DIVIDE,
            pred=BinOp("!=", path("r", "v"), Const(0)),
        )
        assert _values(outcome) == ["25.0"]

    def test_left_key_fault_mid_chunk(self):
        # The key of the third left row faults; the head fault in the
        # fourth row's bucket lies behind it and must not win.  (The
        # keyless forms take the key as a predicate — a different fault
        # site — and sit this one out.)
        lefts = [{"l": Record(k=k, d=d)} for k, d in [(1, 1), (2, 1), (3, 0), (9, 1)]]
        key = BinOp("%", path("l", "k"), path("l", "d"))
        for size in BATCH_SIZES:
            context = _Context(Database(), batch_size=size)
            ops = _operators(
                context,
                lefts,
                _rights((1, 5), (0, 6), (9, 0)),
                "sum",
                left_keys=(key,),
                head=self.DIVIDE,
            )
            fused, pair = ops["group-join"], ops["nest-hash-join"]
            ex = Execution(fused)
            outcome = _outcome(fused, ex)
            assert outcome == _outcome(pair, ex)
            assert outcome[:2] == ("error", "DivisionByZeroError")
            assert "modulo by zero" in outcome[2]
            # Both consumed the same left rows before the fault.
            left_rows = ex.counts[fused.child].rows_produced
            assert left_rows == ex.counts[pair.child.left].rows_produced

    def test_earlier_head_fault_wins_over_a_later_key_fault(self):
        lefts = [{"l": Record(k=k, d=d)} for k, d in [(9, 1), (3, 0)]]
        key = BinOp("%", path("l", "k"), path("l", "d"))
        context = _Context(Database())
        ops = _operators(
            context,
            lefts,
            _rights((0, 0)),
            "sum",
            left_keys=(key,),
            head=self.DIVIDE,
        )
        fused, pair = _outcome(ops["group-join"]), _outcome(ops["nest-hash-join"])
        assert fused == pair
        assert "division by zero" in fused[2]  # not the key's "modulo by zero"

    def test_right_key_fault_fails_the_build(self):
        outcome = _compare(
            _lefts(1),
            [{"r": Record(k=1, v=1, d=1)}, {"r": Record(k=1, v=1, d=0)}],
            "sum",
            right_keys=(BinOp("/", path("r", "k"), path("r", "d")),),
            left_keys=(BinOp("/", path("l", "k"), Const(1)),),
        )
        assert outcome[:2] == ("error", "DivisionByZeroError")

    def test_residual_fault_mid_bucket(self):
        outcome = _compare(
            _lefts(1),
            _rights((1, 5), (1, 0), (1, 2)),
            "sum",
            residual=BinOp(">", self.DIVIDE, path("l", "n")),
        )
        assert outcome[:2] == ("error", "DivisionByZeroError")

    def test_predicate_faulting_on_the_outer_pad(self):
        # A predicate that faults whatever it reads is evaluated by the
        # pair on the padded row of an unmatched left row too.
        pred = BinOp(">", BinOp("/", Const(1), Const(0)), path("r", "v"))
        outcome = _compare(_lefts(7), _rights((1, 1)), "sum", pred=pred)
        assert outcome[:2] == ("error", "DivisionByZeroError")
        assert _compare([], _rights((1, 1)), "sum", pred=pred) == ("rows", [])


class TestGovernor:
    LEFTS = _lefts(1, 2, 1, 3, 2, 1)
    RIGHTS = _rights((1, 1), (2, 2), (1, 3), (1, 4), (2, 5), (4, 6))

    def _run(self, name, size, monoid_name="sum", **limits):
        governor = Governor(**limits)
        context = _Context(Database(), batch_size=size)
        op = _operators(context, self.LEFTS, self.RIGHTS, monoid_name)[name]
        return _outcome(op, Execution(op, governor=governor)), governor

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_same_work_units_when_nothing_trips(self, size):
        # Keyed: 13 candidate pairs; keyless: every left row meets all six
        # right rows — what the hash and the nested-loop join charge.
        for fused, pair, pairs in (
            ("group-join", "nest-hash-join", 13),
            ("group-join-keyless", "nest-nl-join", 36),
        ):
            (got, g1), (want, g2) = (
                self._run(fused, size, max_rows=10_000),
                self._run(pair, size, max_rows=10_000),
            )
            assert got == want and got[0] == "rows"
            assert g1.ticks == g2.ticks == pairs

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_tiny_row_budget_trips_in_the_same_category(self, size):
        for name in ("group-join", "nest-hash-join", "group-join-keyless", "nest-nl-join"):
            outcome, _ = self._run(name, size, max_rows=5)
            assert outcome[:2] == ("error", BudgetExceeded.__name__), name
            assert "max_rows=5" in outcome[2]

    @pytest.mark.parametrize("size", BATCH_SIZES)
    @pytest.mark.parametrize("monoid_name", ["sum", "bag"])
    def test_memory_budget(self, size, monoid_name):
        # Roomy: both charge the same bytes (right chunks; for a collection
        # monoid also the elements, as if buffered per pair).  Tiny: both
        # trip on the build.
        peaks = set()
        for name in ("group-join", "nest-hash-join", "group-join-keyless", "nest-nl-join"):
            outcome, governor = self._run(name, size, monoid_name, max_bytes=10**9)
            assert outcome[0] == "rows"
            peaks.add((name.endswith(("keyless", "nl-join")), governor.peak_bytes))
            outcome, _ = self._run(name, size, monoid_name, max_bytes=64)
            assert outcome[:2] == ("error", BudgetExceeded.__name__), name
            assert "max_bytes=64" in outcome[2]
        assert len(peaks) == 2, peaks  # one figure per (keyed, keyless) pair


class TestOperatorSurface:
    def test_right_side_builds_once_and_left_side_streams_again(self):
        # As for PHashJoin: a re-entry probes the memoized build with a
        # fresh pass over the left input.
        context = _Context(Database())
        op = _operators(context, _lefts(1, 2), _rights((1, 1), (2, 2)), "sum")[
            "group-join"
        ]
        ex = Execution(op)
        first, second = list(op.rows(ex)), list(op.rows(ex))
        assert first == second
        left, right = op.children()
        assert (ex.counts[left].rows_produced, ex.counts[right].rows_produced) == (4, 2)
        assert ex.counts[op].rows_produced == 4 and ex.counts[op].batches_produced == 2

    def test_rows_before_a_left_input_fault_are_delivered_first(self):
        # The group-join streams: the first left chunk's rows leave before
        # the left input raises on its second.  Mutation: block on the
        # whole left input before emitting (the error then comes first).
        class FaultAfterOneChunk(Rows):
            def batches(self, ex):
                yield from list(super().batches(ex))[:1]
                raise ZeroDivisionError("left input fault")

        context = _Context(Database(), batch_size=2)
        op = _operators(
            context, [], _rights((1, 10), (2, 20), (1, 11)), "sum"
        )["group-join"]
        op.child = FaultAfterOneChunk(context, _lefts(1, 2, 1))
        delivered = []
        with pytest.raises(ZeroDivisionError, match="left input fault"):
            for row in op.rows():
                delivered.append(_show(row["m"]))
        assert delivered == ["21", "20"]

    def test_describe(self):
        context = _Context(Database())
        ops = _operators(
            context,
            [],
            [],
            "max",
            residual=BinOp("<", path("r", "v"), path("l", "n")),
        )
        assert ops["group-join"].describe() == (
            "GroupJoin(max -> m by l; l.k = r.k; residual r.v < l.n)"
        )
        plain = _operators(context, [], [], "max")
        assert plain["group-join"].describe() == "GroupJoin(max -> m by l; l.k = r.k)"

    def test_raw_accumulate_hands_out_private_lists(self):
        # The exchange coordinator extends the lists it is given.
        context = _Context(Database())
        op = _operators(context, _lefts(1, 1), _rights((1, 1), (1, 2)), "sum")[
            "nest-hash-join"
        ]
        groups, _ = op.accumulate(Execution(op))
        first, second = groups.values()
        assert (first, second) == ([1, 2], [1, 2])
        first.append(99)
        assert second == [1, 2]
