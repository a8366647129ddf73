"""Unit and property tests for the monoid algebra (repro.calculus.monoids).

The monoid laws (associativity, identity, and the declared commutativity /
idempotence flags) are the soundness bedrock of the whole system — they are
checked here with hypothesis over randomly generated carrier values.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.calculus.monoids import (
    ALL,
    AVG,
    BAG,
    LIST,
    MAX,
    MIN,
    MONOIDS,
    PROD,
    SET,
    SOME,
    SUM,
    leq,
    monoid,
)
from repro.calculus.evaluator import EvaluationError, Evaluator
from repro.calculus.terms import Merge, Var
from repro.data.database import Database
from repro.data.values import NULL, BagValue, ListValue, SetValue, is_null
from repro.engine.compile import ExprCompiler

ints = st.integers(min_value=-50, max_value=50)
positive = st.integers(min_value=0, max_value=50)
bools = st.booleans()

_CARRIERS = {
    "sum": ints,
    "prod": st.integers(min_value=-4, max_value=4),
    "max": positive,
    "min": ints,
    "all": bools,
    "some": bools,
    "set": st.frozensets(ints, max_size=5).map(SetValue),
    "bag": st.lists(ints, max_size=5).map(BagValue),
    "list": st.lists(ints, max_size=5).map(ListValue),
    "avg": st.tuples(ints.map(float), st.integers(min_value=0, max_value=9)),
}


def carrier(name: str):
    return _CARRIERS[name]


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_monoid_laws(name):
    m = MONOIDS[name]
    strategy = carrier(name)

    @given(strategy, strategy, strategy)
    def check(a, b, c):
        # identity
        assert m.merge(m.zero, a) == a
        assert m.merge(a, m.zero) == a
        # associativity
        assert m.merge(m.merge(a, b), c) == m.merge(a, m.merge(b, c))
        if m.commutative:
            assert m.merge(a, b) == m.merge(b, a)
        if m.idempotent:
            assert m.merge(a, a) == a

    check()


def test_registry_contents():
    assert set(MONOIDS) == {
        "set", "bag", "list", "sum", "prod", "max", "min", "all", "some", "avg",
    }


def test_lookup_unknown_monoid():
    with pytest.raises(KeyError, match="unknown monoid"):
        monoid("median")


def test_collection_flags():
    assert SET.is_collection and BAG.is_collection and LIST.is_collection
    assert not SUM.is_collection and not ALL.is_collection


def test_idempotence_flags():
    assert SET.idempotent and ALL.idempotent and SOME.idempotent
    assert MAX.idempotent and MIN.idempotent
    assert not BAG.idempotent and not LIST.idempotent
    assert not SUM.idempotent and not PROD.idempotent


def test_commutativity_flags():
    assert all(MONOIDS[n].commutative for n in MONOIDS if n != "list")
    assert not LIST.commutative


def test_units():
    assert SET.unit(3) == SetValue([3])
    assert BAG.unit(3) == BagValue([3])
    assert LIST.unit(3) == ListValue([3])


def test_fold():
    assert SUM.fold([1, 2, 3]) == 6
    assert ALL.fold([True, True]) is True
    assert ALL.fold([True, False]) is False
    assert SOME.fold([]) is False
    assert SET.fold_elements([1, 1, 2]) == SetValue([1, 2])
    assert BAG.fold_elements([1, 1]) == BagValue([1, 1])


def test_zeros():
    assert SUM.zero == 0
    assert PROD.zero == 1
    assert MAX.zero == 0  # the paper's (max, 0) monoid
    assert MIN.zero == float("inf")
    assert ALL.zero is True
    assert SOME.zero is False
    assert SET.zero == SetValue()


class TestAvg:
    def test_lift_and_merge(self):
        carrier_value = AVG.merge(AVG.lift(10.0), AVG.lift(20.0))
        assert carrier_value == (30.0, 2)

    def test_finalize(self):
        assert AVG.finalize((30.0, 2)) == 15.0

    def test_finalize_empty_is_null(self):
        assert is_null(AVG.finalize(AVG.zero))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e6, max_value=1e6), min_size=1))
    def test_avg_matches_python_mean(self, values):
        merged = AVG.fold(AVG.lift(v) for v in values)
        assert AVG.finalize(merged) == pytest.approx(sum(values) / len(values))


class TestLeq:
    def test_commutative_into_list_rejected(self):
        assert not leq(SET, LIST)
        assert not leq(BAG, LIST)

    def test_list_into_anything(self):
        assert leq(LIST, SET)
        assert leq(LIST, BAG)
        assert leq(LIST, LIST)

    def test_set_into_primitives(self):
        # Allowed: rule D7's duplicate-elimination guard covers this case.
        assert leq(SET, SUM)
        assert leq(SET, ALL)

    def test_bag_into_set(self):
        assert leq(BAG, SET)


# A merge of the wrong kind is a typed fault naming the monoid and both
# operand types: a non-collection operand, or another collection kind on
# either side.
_OF_KIND = {"set": SetValue([1]), "bag": BagValue([1]), "list": ListValue([1])}
_OTHER_KIND = {"set": BagValue([1]), "bag": ListValue([1]), "list": SetValue([1])}
_WRONG_MERGES = [
    (name, left, right)
    for name in sorted(_OF_KIND)
    for left, right in (
        (_OF_KIND[name], 7),
        (_OTHER_KIND[name], _OF_KIND[name]),
        (_OF_KIND[name], _OTHER_KIND[name]),
    )
]


def _merge_fault(run, name, left, right):
    with pytest.raises(EvaluationError) as raised:
        run()
    assert type(raised.value) is EvaluationError
    left_type, right_type = type(left).__name__, type(right).__name__
    assert str(raised.value) == (
        f"{name} merge of {left_type} and {right_type}: "
        f"both operands must be {name}s"
    )


@pytest.mark.parametrize("name, left, right", _WRONG_MERGES, ids=repr)
def test_wrong_kind_merge_is_typed_in_the_evaluator(name, left, right):
    term = Merge(name, Var("l"), Var("r"))
    evaluator = Evaluator(Database())
    env = {"l": left, "r": right}
    _merge_fault(lambda: evaluator.evaluate(term, env), name, left, right)


@pytest.mark.parametrize("name, left, right", _WRONG_MERGES, ids=repr)
def test_wrong_kind_merge_is_typed_in_a_compiled_kernel(name, left, right):
    database = Database()
    compiler = ExprCompiler()
    compiler.activate(Evaluator(database), database)
    kernel = compiler.compile_kernel(Merge(name, Var("l"), Var("r")))
    assert kernel.mode == "compiled"

    def run():
        _, _, err = kernel.fn({"l": [left], "r": [right]}, 1)
        if err is not None:
            raise err

    _merge_fault(run, name, left, right)
