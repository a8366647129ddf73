"""The nested-loop join: a ``PHashJoin`` with no keys.

A keyless build files every right row under ``()``, one bucket of ``m``
rows, and the probe takes ``max(1, batch_size // m)`` left rows at a time
against it.  Each case is held to the algebra evaluator's ``Join`` /
``OuterJoin`` over the same rows: the same rows in the same order, then the
same error (class and text); its work units are the pairs the evaluator
reached, the faulting one included; and no output chunk is longer than
``max(batch_size, m)``.
"""

from __future__ import annotations

import pytest

from repro.algebra.evaluator import PlanEvaluator
from repro.algebra.operators import Join, OuterJoin, Scan
from repro.calculus.terms import TRUE, BinOp, Const, path
from repro.data.database import Database
from repro.data.datagen import company_database
from repro.data.values import NULL, Record
from repro.engine.governor import Governor
from repro.engine.physical import PHashJoin, _Context
from repro.errors import BudgetExceeded
from tests.test_groupjoin import BATCH_SIZES, Rows

#: Left rows: enough to straddle a chunk of 7; the fault sits in row 4.
LEFTS = 9
FAULT_ROW = 4
PAIR = BinOp("%", BinOp("+", path("l", "a"), path("r", "b")), Const(3))


def _residual(kind: str, m: int):
    """``trivial``: every pair joins; ``selective``: ``(l.a + r.b) % 3 =
    0``; ``faulting``: the same, but divided by a term that is 0 at one
    pair — left row FAULT_ROW, right row ``m // 2``."""
    if kind == "trivial":
        return TRUE
    if kind == "selective":
        return BinOp("==", PAIR, Const(0))
    at = Const(FAULT_ROW * 100_000 + m // 2)
    pair_id = BinOp("+", BinOp("*", path("l", "a"), Const(100_000)), path("r", "b"))
    return BinOp("==", BinOp("/", PAIR, BinOp("-", pair_id, at)), Const(0))


def _database(m: int) -> Database:
    db = Database()
    db.add_extent("L", [Record(n=i, a=i) for i in range(LEFTS)])
    db.add_extent("R", [Record(n=j, b=j) for j in range(m)])
    return db


def _show(row):
    right = row["r"]
    return (row["l"]["n"], "pad" if right is NULL else right["n"])


def _evaluated(db, pred, outer):
    """The algebra evaluator's rows, the error that ended them, and the
    pairs it reached: its steps less the rows its scans read — all of
    ``R``, and ``L`` up to the row the fault is in."""
    plan = (OuterJoin if outer else Join)(Scan("L", "l"), Scan("R", "r"), pred)
    evaluator = PlanEvaluator(db)
    rows, error = [], None
    try:
        for env in evaluator.stream(plan):
            rows.append(_show(env))
    except Exception as exc:  # noqa: BLE001 - errors are part of the contract
        error = (type(exc).__name__, str(exc))
    scanned = len(db.extent("R")) + (FAULT_ROW + 1 if error else LEFTS)
    return rows, error, evaluator.steps - scanned


def _keyless(context, db, pred, outer):
    lefts = Rows(context, [{"l": x} for x in db.extent("L")])
    rights = Rows(context, [{"r": x} for x in db.extent("R")])
    return PHashJoin(context, lefts, rights, (), (), pred, ("r",), outer, ((), ()))


def _run(op):
    """The rows, the error and every output chunk's length."""
    rows, lengths = [], []
    try:
        for chunk in op.batches():
            lengths.append(chunk.length)
            rows.extend(map(_show, chunk.envs()))
    except Exception as exc:  # noqa: BLE001
        return rows, (type(exc).__name__, str(exc)), lengths
    return rows, None, lengths


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("m_of", ["0", "1", "12", "size+5"])
@pytest.mark.parametrize("kind", ["trivial", "selective", "faulting"])
@pytest.mark.parametrize("outer", [False, True], ids=["inner", "outer"])
def test_keyless_probe_is_the_nested_loop_join(outer, kind, m_of, size):
    m = size + 5 if m_of == "size+5" else int(m_of)
    db = _database(m)
    pred = _residual(kind, m)
    governor = Governor(max_rows=10**9)
    op = _keyless(_Context(db, governor=governor, batch_size=size), db, pred, outer)
    rows, error, lengths = _run(op)
    want_rows, want_error, reached = _evaluated(db, pred, outer)
    assert (rows, error) == (want_rows, want_error)
    assert governor.ticks == reached
    assert max(lengths, default=0) <= max(size, m)
    assert op.describe() == f"{'OuterNLJoin' if outer else 'NLJoin'}({pred})"


def test_the_cases_are_what_their_names_say():
    # Guards the table: the faulting residual faults at the pair it names,
    # after rows and (outer) pads of earlier left rows; the selective one
    # leaves left rows unmatched when m = 1.
    m = 12
    rows, error, reached = _evaluated(_database(m), _residual("faulting", m), True)
    assert error == ("DivisionByZeroError", "division by zero")
    assert reached == FAULT_ROW * m + m // 2 + 1
    assert rows[-1][0] == FAULT_ROW  # the faulting row's matches, no pad
    rows, _, _ = _evaluated(_database(1), _residual("faulting", 1), True)
    assert rows == [(0, 0), (1, "pad"), (2, "pad"), (3, 0)]  # no pad for row 4
    rows, _, _ = _evaluated(_database(1), _residual("selective", 1), True)
    assert [right for _, right in rows].count("pad") == 6


@pytest.mark.parametrize("outer", [False, True], ids=["inner", "outer"])
def test_a_keyless_build_files_every_right_row(outer):
    # Employees × Departments: 18 pairs.  A build that files nothing under
    # no keys returns none of them (inner) or pads all 6 (outer).
    db = company_database(6, 3, seed=1)
    context = _Context(db)
    join = PHashJoin(
        context,
        Rows(context, [{"e": x} for x in db.extent("Employees")]),
        Rows(context, [{"d": x} for x in db.extent("Departments")]),
        (),
        (),
        TRUE,
        ("d",),
        outer,
        ((), ()),
    )
    plan = (OuterJoin if outer else Join)(
        Scan("Employees", "e"), Scan("Departments", "d"), TRUE
    )
    got = [(row["e"].oid, row["d"].oid) for row in join.rows()]
    want = [(env["e"].oid, env["d"].oid) for env in PlanEvaluator(db).stream(plan)]
    assert got == want and len(got) == 18


def test_a_memory_budget_trips_in_the_build():
    texts = set()
    for size in BATCH_SIZES:
        db = _database(200)
        governor = Governor(max_bytes=2_000)
        op = _keyless(_Context(db, governor=governor, batch_size=size), db, TRUE, True)
        with pytest.raises(BudgetExceeded) as info:
            list(op.batches())
        assert op.left.rows_produced == 0  # tripped before the probe
        texts.add(str(info.value))
    (text,) = texts
    assert text.startswith("memory budget exceeded")
