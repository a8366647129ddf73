"""A root set of structs, and a set's lazily built membership.

``select distinct struct(…)`` reduces its rows into a set of records, each
the layout of its field order and the tuple of its values in sorted-name
order, so two structs listing their fields in other orders are one member.  The set keeps the
first row of each member — the first-seen representative, down to
:func:`exact_key`, which tells ``1`` from ``1.0`` and ``True`` and one
stored object from its equal-state twin.  A set's membership frozenset is
built on first use, by whichever thread gets there first.
"""

from __future__ import annotations

import sys
import threading
from itertools import permutations

import pytest

from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.values import Record, SetValue, exact_key

OPTIONS = [OptimizerOptions(), OptimizerOptions(batch_size=1)]


def _run(db, oql, options):
    pipeline = QueryPipeline(db, options)
    assert "Reduce(set / ( " in pipeline.compile_oql(oql).explain(db)
    return pipeline.run_oql(oql)


@pytest.mark.parametrize("options", OPTIONS, ids=["chunked", "row-chunks"])
@pytest.mark.parametrize("order", list(permutations([1, 1.0, True])), ids=repr)
def test_distinct_struct_keeps_the_first_seen_scalar(order, options):
    db = Database()
    db.add_extent("X", [Record(v=v, i=i) for i, v in enumerate(order)], kind="list")
    result = _run(db, "select distinct struct(A: x.v) from x in X", options)
    assert exact_key(result) == exact_key(SetValue([Record(A=order[0])]))


@pytest.mark.parametrize("options", OPTIONS, ids=["chunked", "row-chunks"])
def test_distinct_struct_of_equal_state_twins_keeps_the_first_oid(options):
    db = Database()
    db.add_extent("T", [Record(a=1), Record(a=2), Record(a=1)], kind="bag")
    first, second, twin = db.extent("T").elements()
    assert twin == first and twin.oid != first.oid
    oql = "select distinct struct(E: t, N: t.a) from t in T"
    result = _run(db, oql, options)
    expected = SetValue([Record(E=first, N=1), Record(E=second, N=2)])
    assert exact_key(result) == exact_key(expected)
    assert [row["E"].oid for row in result.elements()] == [first.oid, second.oid]


def test_fields_in_another_insertion_order_are_one_member():
    ab, ba = Record({"A": 1, "B": 2}), Record({"B": 2, "A": 1})
    other = Record({"B": 1, "A": 2})
    assert ab == ba and hash(ab) == hash(ba) and ab != other
    built = SetValue([ab, ba, other])
    assert len(built) == 2 and built.members()[0] is ab and built.members()[1] is other


def test_a_struct_set_keeps_the_first_of_each_member():
    rows = [Record(A=True, B="x"), Record(A=1.0, B="x"), Record(A=1, B="y")]
    kept = SetValue(rows).members()
    assert len(kept) == 2 and kept[0] is rows[0] and kept[1] is rows[2]
    assert exact_key(SetValue(rows)) != exact_key(SetValue(rows[1:]))


def test_threads_agree_on_a_fresh_sets_membership():
    # Eight threads (more than the cores) race to build each fresh set's
    # membership, switching as often as the interpreter allows.
    rows = [Record(A=i % 50, B=str(i % 7)) for i in range(400)]
    plain = SetValue(rows)
    probes = [Record(A=3, B="3"), Record(A=3, B="4"), rows[-1]]
    expected = ([p in plain for p in probes], hash(plain), True, True)
    fresh = [SetValue(rows) for _ in range(20)]
    start = threading.Barrier(8, timeout=10)
    seen: list = []

    def probe():
        start.wait()
        for s in fresh:
            seen.append(([p in s for p in probes], hash(s), s == plain, plain == s))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=probe) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [expected] * (8 * len(fresh))
