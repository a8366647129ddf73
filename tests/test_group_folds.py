"""A hash nest's primitive groups fold once each, from their head lists.

``PHashNest.accumulate`` keeps each group as the list of its head values in
stream order, NULLs included, and ``_groups`` folds each list once with the
monoid's ``folder`` (its ``loop``, NULLs skipped), instead of merging row by
row.  Every group must come out as the calculus evaluator folds it, in
stream order — a float sum bit for bit, so compared by ``repr`` — whatever
the chunk size, and ``accumulate`` must hand the exchange those lists.
"""

from __future__ import annotations

import random

import pytest

from repro.calculus.evaluator import evaluate
from repro.calculus.monoids import monoid
from repro.calculus.terms import TRUE, comprehension, const, var
from repro.data.values import NULL, ListValue
from repro.engine.batch import Chunk
from repro.engine.physical import Execution, PHashNest, PhysicalOperator, _Context


class _Rows(PhysicalOperator):
    """A child replaying *columns* in chunks of *size* rows."""

    def __init__(self, columns: dict, size: int):
        super().__init__(_Context(None))
        self._columns, self._size = columns, size

    def batches(self, ex):
        n = len(next(iter(self._columns.values())))
        for start in range(0, n, self._size):
            part = {k: col[start : start + self._size] for k, col in self._columns.items()}
            yield Chunk(part, len(next(iter(part.values()))))


def _rows(name: str) -> dict:
    """Forty rows over four group keys, NULL among them, whose heads mix
    ints, floats an order-sensitive sum tells apart, and NULLs (booleans
    and NULLs for the quantifiers)."""
    rng = random.Random(41)
    numbers = [1, 2, 0.1, 0.2, 0.3, 1e16, -1e16, 1.5, -0.0, NULL, NULL]
    quantified = [True, False, NULL]
    pool = quantified if name in ("all", "some") else numbers
    keys = [rng.choice([1, 2, 3, NULL]) for _ in range(40)]
    keys += [4, 4]  # a group of NULL heads only
    heads = [rng.choice(pool) for _ in range(40)] + [NULL, NULL]
    return {"k": keys, "v": heads}


def _reference(name: str, rows: dict) -> dict:
    """Per group key, first seen first, the calculus fold of its heads."""
    groups: dict = {}
    for key, value in zip(rows["k"], rows["v"]):
        groups.setdefault(key, []).append(value)
    return {
        key: evaluate(comprehension(name, var("x"), ("x", const(ListValue(values)))), None)
        for key, values in groups.items()
    }


def _nest(name: str, rows: dict, size: int) -> PHashNest:
    return PHashNest(
        _Context(None, batch_size=size), _Rows(rows, size), monoid(name), var("v"),
        ("k",), (), "m", TRUE, (False,),
    )  # fmt: skip


@pytest.mark.parametrize("size", [1, 3, 1024])
@pytest.mark.parametrize("name", ["sum", "avg", "all", "some"])
def test_groups_fold_as_the_calculus_does(name, size):
    rows = _rows(name)
    reference = _reference(name, rows)
    nest = _nest(name, rows, size)
    columns, count = nest._groups(Execution(nest))
    assert count == len(reference)
    assert repr(columns["k"]) == repr(list(reference))
    assert repr(columns["m"]) == repr(list(reference.values()))


@pytest.mark.parametrize("size", [1, 3, 1024])
@pytest.mark.parametrize("name", ["sum", "avg", "all", "some"])
def test_raw_accumulation_keeps_element_lists(name, size):
    rows = _rows(name)
    nest = _nest(name, rows, size)
    groups, columns = nest.accumulate(Execution(nest))
    expected: dict = {}
    for key, value in zip(rows["k"], rows["v"]):
        expected.setdefault(key, []).append(value)
    assert repr(groups) == repr(expected)
    assert repr(columns["k"]) == repr(list(expected))
