"""Property test: an index key that holds stored objects matches by identity.

An index is a kept build (``Database.builds``): the hash table a hash join
building ``Scan(X)`` on ``x.attr`` files through ``identity_key``.  Random
databases give it what a table filed by value gets wrong — bag extents of
equal-state twins, an attribute that points at them, a ``:p`` bound to a
stored object, a scalar or NULL, and ``add_extent`` / ``create_index``
interleaved — and after every step the IndexScan plan, the scan plan
(``index_scans=False``) and the calculus evaluator (``unnest=False``) must
agree.  An index scan and a hash join that build the same scan on the same
attribute read one entry.

The ``index-identity-ci`` profile registered here raises the example budget
to 1000; the property names its settings, so this module takes the
profile's when asked to::

    HYPOTHESIS_PROFILE=index-identity-ci pytest tests/test_index_identity.py \\
        --hypothesis-seed 36
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.calculus.terms import Proj, Var
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import BuildMemo, Database
from repro.data.values import NULL, Record
from repro.engine.physical import PHashJoin

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("index-identity-ci", _SETTINGS, max_examples=1000)
if os.environ.get("HYPOTHESIS_PROFILE") == "index-identity-ci":
    _SETTINGS = settings.get_profile("index-identity-ci")

#: Equality selections on ``A.r`` (stored objects of ``B``, or NULL) and
#: ``A.k`` (small ints, or NULL), each written both ways round.
QUERIES = (
    "select a.n from a in A where a.r = :p",
    "select distinct a.n from a in A where :p = a.r and a.n >= 0",
    "select a.n from a in A where a.k = :p",
)

#: A hash join whose build side is ``Scan(A)`` on ``a.r``: the index's table.
JOIN = "select struct( N: a.n, S: b.s ) from b in B, a in A where a.r = b"

OPTIONS = (
    OptimizerOptions(),
    OptimizerOptions(index_scans=False),
    OptimizerOptions(unnest=False),
)

# B: one small state per object, so equal-state twins are common.
_b_states = st.lists(st.integers(0, 1), min_size=1, max_size=4)
# A: per object, which B object its ``r`` points at (None: NULL) and its k.
_a_rows = st.lists(
    st.tuples(st.none() | st.integers(0, 3), st.none() | st.integers(0, 2)),
    max_size=6,
)
_steps = st.lists(
    st.tuples(st.just("B"), _b_states)
    | st.tuples(st.just("A"), st.tuples(_a_rows, st.sampled_from(["set", "bag"])))
    | st.tuples(st.just("index"), st.sampled_from(["r", "k"])),
    min_size=1,
    max_size=5,
)
# :p — a stored object of B (by position), a scalar, or NULL.
_params = st.lists(
    st.tuples(st.just("object"), st.integers(0, 3))
    | st.tuples(st.just("scalar"), st.integers(0, 2))
    | st.just(("null", 0)),
    min_size=1,
    max_size=3,
)


def _add_a(db: Database, rows: list, kind: str) -> None:
    b = list(db.extent("B").elements())
    objects = [
        Record(n=n, r=NULL if r is None else b[r % len(b)], k=NULL if k is None else k)
        for n, (r, k) in enumerate(rows)
    ]
    db.add_extent("A", objects, kind=kind)


def _param(db: Database, choice: tuple[str, int]):
    kind, value = choice
    if kind == "object":
        b = list(db.extent("B").elements())
        return b[value % len(b)]
    return NULL if kind == "null" else value


def _shares_one_build(db: Database, p) -> None:
    """The index scan on ``A.r`` stores the build ``JOIN`` then reads."""
    db.builds = BuildMemo()
    QueryPipeline(db).run_oql(QUERIES[0], p=p)
    compiled = QueryPipeline(db).compile_oql(JOIN)
    (join,) = compiled.physical(db).children()
    assert type(join) is PHashJoin and join.right.describe().endswith("<- A)")
    assert join.right_keys == (Proj(Var(join.right.var), "r"),)
    compiled.execute(db)
    assert (len(db.builds), db.builds.hits, db.builds.misses) == (1, 1, 1)


@_SETTINGS
@given(_b_states, _a_rows, _steps, _params)
def test_index_scans_match_stored_objects_by_identity(states, rows, steps, params):
    db = Database()
    db.add_extent("B", [Record(s=s) for s in states], kind="bag")
    _add_a(db, rows, "bag")
    pipelines = [QueryPipeline(db, options) for options in OPTIONS]
    for step, argument in steps:
        if step == "B":
            db.add_extent("B", [Record(s=s) for s in argument], kind="bag")
        elif step == "A":
            _add_a(db, *argument)
        else:
            db.create_index("A", argument)
        for choice in params:
            p = _param(db, choice)
            for source in QUERIES:
                attr = "k" if "a.k" in source else "r"
                explain = pipelines[0].compile_oql(source).explain(db)
                assert ("IndexScan" in explain) == db.has_index("A", attr)
                indexed, scanned, calculus = (
                    pipeline.run_oql(source, p=p) for pipeline in pipelines
                )
                assert indexed == scanned == calculus, (source, p)
    if db.has_index("A", "r"):
        _shares_one_build(db, _param(db, params[0]))
