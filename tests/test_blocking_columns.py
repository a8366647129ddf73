"""What the blocking operators buffer — whole columns, row positions,
first-seen group columns — and the chunk-level routines they share.

Two tables.  **Candidates**: ``PhysicalOperator._emit_candidates`` filters a
chunk's candidate rows for both of its callers, a ``PHashJoin`` with a
residual and a ``PUnnest`` with a predicate; every case runs through both,
inner and outer, at chunk sizes 1, 7 and 1024, against the calculus
interpreter evaluating the same keys, paths and predicate row by row: the
same rows in the same order, then the same error (class and text), and the
work units the parent commit charged.  **Group columns**: ``PHashNest``
keeps one column per grouping variable, appended to when a group opens, and
``PGroupJoin`` passes its left rows through; the cases are the ones where
"one entry per group" and "one entry per row" differ.

Each case was shown to bite by breaking the code and watching it fail; the
mutation is named beside the case it kills.
"""

from __future__ import annotations

import pytest

from repro.calculus.evaluator import Evaluator
from repro.calculus.monoids import monoid as lookup_monoid
from repro.calculus.terms import TRUE, BinOp, Const, If, path
from repro.data.database import Database
from repro.data.values import NULL, CollectionValue, ListValue, Record
from repro.engine.governor import Governor
from repro.engine.physical import (
    PGroupJoin,
    PHashJoin,
    PHashNest,
    PMap,
    PSeed,
    PUnnest,
    _Context,
)
from tests.test_groupjoin import BATCH_SIZES, KEYED, KEYLESS, Rows, typing_of

# ---------------------------------------------------------------------------
# Candidates: one routine, two callers
# ---------------------------------------------------------------------------

#: ``10 / r.v > 1`` keeps 2 and 5, drops 20 and 50 (and NULL: a NULL
#: predicate filters as false) and faults on 0.
PRED = BinOp(">", BinOp("/", Const(10), path("r", "v")), Const(1))
#: 0, or a fault on a row whose ``d`` is 0: what makes a join key or an
#: unnest path fault at a chosen row.
GUARD = BinOp("%", Const(0), path("l", "d"))
KEY = BinOp("+", path("l", "k"), GUARD)
PATH = If(BinOp("==", GUARD, Const(0)), path("l", "items"), path("l", "items"))

#: Marks a row whose key / path faults.
FAULT = "fault"
#: Six rows before every case's own, so that at chunk size 7 the case
#: straddles a chunk boundary.  They hold 7 candidates.
PREFIX = [[2], [20], [5, 2], [], [2], [20, 2]]

#: name -> (each row's candidate values — None: NULL key / NULL path, FAULT:
#: the key / path faults —, work units at the parent commit, with PREFIX).
#: Beside each case: a mutation of ``_emit_candidates`` (or of the probe it
#: is fed by) that this case kills.
CASES = {
    # Mutation: pad only rows that had a candidate.
    "no-candidate-survives": ([[20], [50, 20], []], 10, True),
    # Mutation: compress the added columns but not ``parent_of``
    # (`parent_of[:passed]`).
    "all-survive": ([[2], [5, 2], [2, 5, 2]], 13, True),
    # Mutation: compress ``parent_of`` but not the added columns.
    "some-survive": ([[2, 20], [20], [20, 5, 20], [NULL]], 14, True),
    # Mutation: pad the row the predicate faulted in (`n = bad + 1`).
    "fault-at-first-candidate": ([[2], [0, 2, 5], [2]], 9, True),
    # Mutation: raise before emitting the survivors that preceded the fault.
    "fault-at-middle-candidate": ([[2], [5, 0, 2], [2]], 10, True),
    # Mutation: do not count the failing candidate (`tick_many(passed)`).
    "fault-at-last-candidate": ([[2], [5, 2, 0], [2]], 11, True),
    # Mutation: pad every row of the chunk, not the *n* that precede the
    # key / path fault (`range(len(column))`).
    "key-or-path-fault-after-row-k": ([[2], [20], FAULT, [2]], 9, True),
    # Mutation: let the later key / path fault win (`kerr or perr`).
    "predicate-fault-precedes-key-fault": ([[0], FAULT], 8, True),
    # Mutation: skip the outer pads when a chunk has no candidate at all.
    "empty-right-side-or-collection": ([[], [], []], 0, False),
    # Mutation: look a NULL key up (the right side holds a NULL-keyed row
    # that would pass) / treat a NULL path as a fault.
    "null-key-or-path": ([[2], None, [20], None], 9, True),
    # Rows 0, 2, 4 pad; 1, 3 match several.  Mutation: append the pads
    # after the survivors instead of sorting them in.
    "pads-and-matches-interleaved": ([[20], [2, 5, 20], [], [5, 2], None], 13, True),
    # Mutation: decide the pads over the rows up to the last survivor's
    # (`range(parent_of[-1])`) — the padded row before the fault is lost.
    "pad-directly-before-the-fault": ([[2], [20], [0, 5]], 10, True),
}


def _left_rows(spec):
    rows = []
    for i, cands in enumerate(spec):
        values = [] if cands in (None, FAULT) else cands
        rows.append(
            {
                "l": Record(
                    n=i,
                    k=NULL if cands is None else i,
                    d=0 if cands == FAULT else 100,
                    items=(
                        NULL
                        if cands is None
                        else ListValue(Record(k=i, v=v) for v in values)
                    ),
                )
            }
        )
    return rows


def _right_rows(spec):
    """Every row's candidates under the row's key, behind a NULL-keyed row
    that would pass the predicate if a NULL key ever joined."""
    rows = [{"r": Record(k=NULL, v=2)}] if any(spec) else []
    for left in _left_rows(spec):
        items = left["l"]["items"]
        if items is not NULL:
            rows.extend({"r": element} for element in items)
    return rows


def _build(caller, context, spec, outer):
    lefts = Rows(context, _left_rows(spec))
    if caller == "hash-join":
        rights = Rows(context, _right_rows(spec))
        return PHashJoin(
            context, lefts, rights, (KEY,), (path("r", "k"),), PRED, ("r",), outer, KEYED
        )
    return PUnnest(context, lefts, PATH, "r", PRED, outer)


def _show_pair(left, right):
    return (left["n"], "pad" if right is NULL else repr(right["v"]))


def _drain(op):
    """The rows an operator delivers, then the error that ended them."""
    rows = []
    try:
        for row in op.rows():
            rows.append(_show_pair(row["l"], row["r"]))
    except Exception as exc:  # noqa: BLE001 - errors are part of the contract
        return rows, (type(exc).__name__, str(exc))
    return rows, None


def _interpreted(spec, outer):
    """The same, row by row through the calculus interpreter: key or path,
    then each candidate's predicate, then the pad.  Also counts the
    candidates reached."""
    interpret = Evaluator(Database()).evaluate
    rows, reached = [], 0
    try:
        for left in _left_rows(spec):
            env = {"l": left["l"]}
            interpret(GUARD, env)
            items = left["l"]["items"]
            matched = False
            for element in () if items is NULL else items:
                reached += 1
                if interpret(PRED, {**env, "r": element}) is True:
                    matched = True
                    rows.append(_show_pair(left["l"], element))
            if outer and not matched:
                rows.append(_show_pair(left["l"], NULL))
    except Exception as exc:  # noqa: BLE001
        return rows, (type(exc).__name__, str(exc)), reached
    return rows, None, reached


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("outer", [False, True], ids=["inner", "outer"])
@pytest.mark.parametrize("caller", ["hash-join", "unnest"])
@pytest.mark.parametrize("case", CASES)
def test_candidates(case, caller, outer, size):
    own, units, prefixed = CASES[case]
    spec = (PREFIX if prefixed else []) + own
    governor = Governor(max_rows=10**9)
    context = _Context(Database(), governor=governor, batch_size=size)
    rows, error = _drain(_build(caller, context, spec, outer))
    want_rows, want_error, reached = _interpreted(spec, outer)
    assert (rows, error) == (want_rows, want_error)
    assert governor.ticks == units == reached


def test_the_cases_are_what_their_names_say():
    # Guards the table itself: a case that stops faulting, or padding, would
    # keep passing while testing nothing.
    faulting = {
        name for name, (own, _, _) in CASES.items() if _interpreted(own, True)[1]
    }
    assert faulting == {
        "fault-at-first-candidate",
        "fault-at-middle-candidate",
        "fault-at-last-candidate",
        "key-or-path-fault-after-row-k",
        "predicate-fault-precedes-key-fault",
        "pad-directly-before-the-fault",
    }
    rows, _, _ = _interpreted(CASES["pads-and-matches-interleaved"][0], True)
    assert [right == "pad" for _, right in rows] == [
        True, False, False, True, False, False, True,
    ]  # fmt: skip
    rows, _, _ = _interpreted(CASES["pad-directly-before-the-fault"][0], True)
    assert rows[-1] == (1, "pad")


def test_a_reentered_hash_join_builds_once():
    # Mutation: append the pad NULL on every entry (or drop the memo).
    context = _Context(Database())
    spec = CASES["pads-and-matches-interleaved"][0]
    op = _build("hash-join", context, spec, True)
    first, second = _drain(op), _drain(op)
    assert first == second and first[1] is None
    rights = _right_rows(spec)
    assert op.right.rows_produced == len(rights)
    (column,) = op._built[1].values()
    assert column == [row["r"] for row in rights] + [NULL]


# ---------------------------------------------------------------------------
# Group columns
# ---------------------------------------------------------------------------

HEAD = path("r", "v")
MONOIDS = ("sum", "bag", "list", "max")


def _show(value):
    if isinstance(value, CollectionValue):
        return (type(value).__name__, [_show(v) for v in value.elements()])
    return repr(value)


def _group_forms(context, lefts, rights, monoid_name, group_by, left_key):
    """The nest of the outer-join of *lefts* and *rights* on ``left_key =
    r.k`` (None: no key, every pair joins), grouped by *group_by*: fused,
    and as the nest over the hash and the nested-loop join.  *lefts* None is
    the one empty row of a ``Seed``."""
    monoid = lookup_monoid(monoid_name)
    nest_args = (monoid, HEAD, group_by, ("r",), "m", TRUE)
    nest_bare = (False,) * len(group_by)
    keys = ((), ()) if left_key is None else ((left_key,), (path("r", "k"),))
    bare = KEYLESS if left_key is None else KEYED
    whole = TRUE if left_key is None else BinOp("==", left_key, path("r", "k"))

    def leaves():
        left = PSeed() if lefts is None else Rows(context, lefts)
        return left, Rows(context, rights)

    forms = {
        "group-join": PGroupJoin(
            context, *leaves(), *keys, TRUE, ("r",), *nest_args, bare
        ),
        "nest-nl-join": PHashNest(
            context,
            PHashJoin(context, *leaves(), (), (), whole, ("r",), True, KEYLESS),
            *nest_args,
            nest_bare,
        ),
    }
    if left_key is not None:
        forms["group-join-keyless"] = PGroupJoin(
            context, *leaves(), (), (), whole, ("r",), *nest_args, KEYLESS
        )
        forms["nest-hash-join"] = PHashNest(
            context,
            PHashJoin(context, *leaves(), *keys, TRUE, ("r",), True, KEYED),
            *nest_args,
            nest_bare,
        )
    return forms


def _groups_of(
    lefts,
    rights,
    monoid_name,
    group_by,
    left_key,
    label,
    occurring=frozenset(),
    mapped=None,
):
    """Every form's group rows — ``label(row)`` and the shown value — at
    every chunk size, all equal; returns them.  *occurring* names the left
    variables whose rows carry an occurrence column.  *mapped*, where the
    group-join's rows (one per left row) are not the nests' groups, makes
    them from the groups."""
    outcomes = {}
    for size in BATCH_SIZES:
        context = _Context(Database(), batch_size=size, typing=typing_of(occurring))
        forms = _group_forms(context, lefts, rights, monoid_name, group_by, left_key)
        for name, op in forms.items():
            outcomes[name, size] = [
                (label(row), _show(row["m"])) for row in op.rows()
            ]
    reference = outcomes["nest-nl-join", 1024]
    fused = reference if mapped is None else mapped(reference)
    for (name, _), outcome in outcomes.items():
        expected = fused if name.startswith("group-join") else reference
        assert outcome == expected, outcomes
    return reference


RIGHTS = [{"r": Record(k=k, v=v)} for k, v in [(1, 10), (2, 5), (1, 11), (3, NULL)]]

#: What each monoid makes of the right rows' heads, in build order.
ALL = {
    "sum": "26",
    "bag": ("BagValue", ["10", "5", "11", "NULL"]),
    "list": ("ListValue", ["10", "5", "11", "NULL"]),
    "max": "11",
}
NONE = {"sum": "0", "bag": ("BagValue", []), "list": ("ListValue", []), "max": "0"}


def _of(monoid_name, *values):
    """The fold of *values* by the monoid, as ``_show`` renders it."""
    if monoid_name == "sum":
        return repr(sum(values))
    if monoid_name == "max":
        return repr(max(values, default=0))
    kind = "BagValue" if monoid_name == "bag" else "ListValue"
    return (kind, [repr(v) for v in values])


@pytest.mark.parametrize("monoid_name", MONOIDS)
class TestGroupColumns:
    def test_no_grouping_column_is_one_group(self, monoid_name):
        # Mutation: count the groups on the first key column
        # (`len(next(iter(key_cols.values()), ()))`): there is none.
        groups = _groups_of(None, RIGHTS, monoid_name, (), None, lambda row: ())
        assert groups == [((), ALL[monoid_name])]
        # … the pad of an empty right side is still one group …
        groups = _groups_of(None, [], monoid_name, (), None, lambda row: ())
        assert groups == [((), NONE[monoid_name])]

    def test_no_grouping_column_and_no_row_is_no_group(self, monoid_name):
        # Mutation: emit the zero of the monoid for an empty input.
        assert _groups_of([], RIGHTS, monoid_name, (), None, lambda row: ()) == []
        context = _Context(Database())
        monoid = lookup_monoid(monoid_name)
        nest = PHashNest(
            context, Rows(context, []), monoid, HEAD, (), ("r",), "m", TRUE, ()
        )
        assert nest._groups() == ({"m": []}, 0)

    def test_two_grouping_columns(self, monoid_name):
        # Groups are (a, b) pairs: rows 0 and 1 share only ``a``, and each
        # ``a1`` row meets two right rows.  Mutations: in the nests over a
        # join, append to the key columns for every joined row, not when a
        # group opens (5 entries for 3 groups); append only to the first
        # grouping column.
        a1, a2 = Record(k=1).with_oid(1), Record(k=2).with_oid(2)
        b1, b2 = Record(t="x").with_oid(3), Record(t="y").with_oid(4)
        lefts = [{"a": a, "b": b} for a, b in [(a1, b1), (a1, b2), (a2, b1)]]
        groups = _groups_of(
            lefts,
            RIGHTS,
            monoid_name,
            ("a", "b"),
            path("a", "k"),
            lambda row: (row["a"].oid, row["b"].oid),
        )
        assert groups == [
            ((1, 3), _of(monoid_name, 10, 11)),
            ((1, 4), _of(monoid_name, 10, 11)),
            ((2, 3), _of(monoid_name, 5)),
        ]

    def test_equal_values_under_two_identities(self, monoid_name):
        # A variable without an occurrence is keyed by its identity: two
        # objects equal in value are two groups.  Mutation: key the groups
        # on the value (`identity_key` -> the row).
        same, other = Record(k=1).with_oid(7), Record(k=1).with_oid(8)
        groups = _groups_of(
            [{"l": same}, {"l": other}],
            RIGHTS,
            monoid_name,
            ("l",),
            path("l", "k"),
            lambda row: row["l"].oid,
        )
        assert groups == [(7, _of(monoid_name, 10, 11)), (8, _of(monoid_name, 10, 11))]

    def test_one_identity_at_two_occurrences(self, monoid_name):
        # Rows 0 and 1 are one object at two occurrences of a bag (two
        # groups, each folding its bucket once); row 2 equals them in value
        # under another OID (its own group).  Mutation: key the groups on
        # the variable rather than its occurrence.
        same, other = Record(k=1).with_oid(7), Record(k=1).with_oid(8)
        lefts = [{"l": same, "l#": 0}, {"l": same, "l#": 1}, {"l": other, "l#": 2}]
        groups = _groups_of(
            lefts,
            RIGHTS,
            monoid_name,
            ("l",),
            path("l", "k"),
            lambda row: (row["l"].oid, row["l#"]),
            occurring=frozenset({"l"}),
        )
        assert groups == [
            ((7, 0), _of(monoid_name, 10, 11)),
            ((7, 1), _of(monoid_name, 10, 11)),
            ((8, 2), _of(monoid_name, 10, 11)),
        ]

    def test_null_group_keys_share_one_group(self, monoid_name):
        # Two NULL left rows: one group of a nest (first seen at row 1),
        # padded twice.  Mutation: open a group per NULL row (`key is NULL
        # or key not in`).  The group-join maps its left rows, in which a
        # plan never repeats a binding: each NULL row is padded on its own.
        lefts = [{"l": Record(k=2)}, {"l": NULL}, {"l": NULL}, {"l": Record(k=1)}]

        def label(row):
            return "NULL" if row["l"] is NULL else row["l"]["k"]

        groups = _groups_of(
            lefts,
            RIGHTS,
            monoid_name,
            ("l",),
            path("l", "k"),
            label,
            mapped=lambda groups: groups[:2] + groups[1:],
        )
        assert groups == [
            (2, _of(monoid_name, 5)),
            ("NULL", NONE[monoid_name]),
            (1, _of(monoid_name, 10, 11)),
        ]


def test_a_fault_above_the_streaming_group_join_can_come_first():
    # The group-join streams, the pair blocks.  Left row 0 divides by zero
    # in a Map above; left row 1's join key faults below it.  The Map sees
    # row 0 before the group-join reaches row 1, so its error wins; the
    # pair's nest raises the key fault before the Map sees a row (as does
    # every parallel plan, which keeps the pair).  Mutation: block on the
    # whole left input before emitting.
    lefts = [{"l": Record(k=1, d=1, x=0)}, {"l": Record(k=2, d=0, x=1)}]
    divide = (("y", BinOp("/", Const(1), path("l", "x"))),)
    for size in BATCH_SIZES:
        context = _Context(Database(), batch_size=size)
        forms = _group_forms(context, lefts, RIGHTS, "sum", ("l",), KEY)
        for name, op in forms.items():
            expected = "division" if name.startswith("group-join") else "modulo"
            with pytest.raises(Exception, match=f"^{expected} by zero$"):
                list(PMap(context, op, divide).rows())
