"""Unit and property tests for the monoid algebra (repro.calculus.monoids).

The monoid laws (associativity, identity, and the declared commutativity /
idempotence flags) are the soundness bedrock of the whole system — they are
checked here with hypothesis over randomly generated carrier values.  So is
each primitive monoid's ``loop``, the fold the engine runs, against the
reference ``merge(carrier, lift(value))`` fold the evaluators run, and
``folder``, which makes every fold's heads its value, against the fold of
the heads' units.

The ``value-laws-ci`` profile (also registered by ``test_value_laws.py``)
raises the example budget; this module loads it when asked to::

    HYPOTHESIS_PROFILE=value-laws-ci pytest tests/test_monoids.py \\
        --hypothesis-seed 27
"""

from __future__ import annotations

import os
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

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
    SortedMonoid,
    folder,
    leq,
    monoid,
)
from kernel_runs import execution
from repro.calculus.evaluator import EvaluationError, Evaluator
from repro.calculus.terms import Merge, Var
from repro.data.database import Database
from repro.data.values import NULL, BagValue, ListValue, Record, SetValue, is_null
from repro.engine.compile import ExprCompiler

settings.register_profile("value-laws-ci", max_examples=1000, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "value-laws-ci":
    settings.load_profile("value-laws-ci")

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


#: ORDER BY keys: ints and NULL, few of them, so that ties are common.
sort_keys = st.integers(min_value=0, max_value=3) | st.just(NULL)
#: A sorted fold's heads, struct(k0, k1, v), with any element v.
heads = st.builds(
    lambda k0, k1, v: Record(k0=k0, k1=k1, v=v), sort_keys, sort_keys, ints
)
#: Heads whose element is its keys: ties only between equal heads.
total_heads = st.builds(
    lambda k0, k1: Record(k0=k0, k1=k1, v=Record(a=k0, b=k1)), sort_keys, sort_keys
)
SORTED = ("sorted[+-]", "sorted[--]")


def carrier(name: str):
    if name in SORTED:  # a fold of units, over total keys
        m = monoid(name)
        return st.lists(total_heads, max_size=5).map(
            lambda hs: m.fold(m.unit(h) for h in hs)
        )
    return _CARRIERS[name]


@pytest.mark.parametrize("name", sorted(MONOIDS) + list(SORTED))
def test_monoid_laws(name):
    m = monoid(name)
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


def _before(m: SortedMonoid, a: Record, b: Record) -> bool:
    """*a* sorts strictly before *b* under *m*'s keys."""
    for i, descending in enumerate(m.descending):
        x, y = a[f"k{i}"], b[f"k{i}"]
        if x == y:
            continue
        if is_null(x) or is_null(y):
            return is_null(x) != descending  # NULL first ascending
        return x > y if descending else x < y
    return False


@pytest.mark.parametrize("name", SORTED)
@given(st.lists(heads, max_size=8))
def test_sorted_fold_elements_is_the_fold_of_its_units(name, hs):
    m = monoid(name)
    folded = m.fold_elements(hs)
    assert folded == m.finalize(m.fold(m.unit(h) for h in hs))
    assert isinstance(folded, ListValue)


@given(st.lists(st.tuples(sort_keys, sort_keys), max_size=8))
def test_sorted_orders_by_its_keys_and_is_stable_on_ties(keys):
    m = monoid("sorted[+-]")
    hs = [Record(k0=k0, k1=k1, v=i) for i, (k0, k1) in enumerate(keys)]
    out = list(m.fold_elements(hs))  # the elements: positions in hs
    assert sorted(out) == list(range(len(hs)))
    for i, j in zip(out, out[1:]):
        assert not _before(m, hs[j], hs[i])  # in key order
        if not _before(m, hs[i], hs[j]):  # tied: in the order folded
            assert i < j


@given(st.lists(total_heads, max_size=6), st.randoms(use_true_random=False))
def test_sorted_is_commutative_on_total_keys(hs, rnd):
    m = monoid("sorted[+-]")
    shuffled = list(hs)
    rnd.shuffle(shuffled)
    assert m.fold_elements(hs) == m.fold_elements(shuffled)


def test_sorted_family_lookup():
    m = monoid("sorted[+-]")
    assert m is monoid("sorted[+-]") and m.descending == (False, True)
    assert m.commutative and not m.idempotent and m.is_collection
    assert "sorted[+-]" not in MONOIDS
    for bad in ("sorted[]", "sorted[+x]", "sorted", "unsorted[+]", "sorted_distinct[+]"):
        with pytest.raises(KeyError, match="unknown monoid"):
            monoid(bad)
    assert leq(SET, m) and leq(BAG, m) and leq(LIST, m)


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
    kernel = ExprCompiler().compile_kernel(Merge(name, Var("l"), Var("r")))

    def run():
        _, _, err = kernel.fn(execution(Database()), {"l": [left], "r": [right]}, 1)
        if err is not None:
            raise err

    _merge_fault(run, name, left, right)


# ---------------------------------------------------------------------------
# Fold loops: each primitive monoid's loop is the reference fold
# ---------------------------------------------------------------------------

PRIMITIVE = ["sum", "prod", "max", "min", "all", "some", "avg"]
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.5, -1.5, 1e16, 1e-300]),
    st.floats(allow_nan=True, allow_infinity=True),
)
#: Streams mixing ints, floats (``-0.0`` included), bools and NULL.
STREAMS = st.lists(
    st.one_of(st.integers(-3, 3), _FLOATS, st.booleans(), st.just(NULL)),
    max_size=12,
)
_NUMBERS = st.one_of(st.integers(-3, 3), _FLOATS, st.booleans())
_START = {
    "sum": _NUMBERS,
    "prod": _NUMBERS,
    "max": _NUMBERS,
    "min": _NUMBERS,
    "all": st.booleans(),
    "some": st.booleans(),
    "avg": st.tuples(_FLOATS, st.integers(0, 9)),
}


def reference_fold(m, carrier, values):
    """The evaluators' fold: NULLs skipped, each value lifted and merged."""
    for value in values:
        if value is not NULL:
            carrier = m.merge(carrier, m.lift(value))
    return carrier


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def _same(a, b) -> bool:
    """Bit for bit — re-association and ``-0.0`` show there — except that a
    NaN only has to meet a NaN: IEEE 754 leaves the sign and payload of an
    operation on NaNs unspecified, and one stream can end on either."""
    if isinstance(a, float) and a != a:
        return isinstance(b, float) and b != b
    return _bits(a) == _bits(b)


def _nan(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@given(STREAMS, st.fixed_dictionaries(_START))
@example(  # -nan, then a NaN with payload 1: the sum's NaN is either
    [_nan(0xFFF8000000000000), _nan(0x7FF8000000000001)],
    {"sum": 0, "prod": 1, "max": 0, "min": 0, "all": True, "some": False,
     "avg": (0.0, 0)},
)
def test_fold_loops_equal_the_reference_fold(values, starts):
    for name in PRIMITIVE:
        m = MONOIDS[name]
        for carrier in (m.zero, starts[name]):
            got = m.loop(carrier, iter(values))
            want = reference_fold(m, carrier, values)
            assert repr(got) == repr(want), name
            assert repr(m.finalize(got)) == repr(m.finalize(want)), name
            if name in ("sum", "avg"):  # a float sum, bit for bit
                parts = zip(got, want) if name == "avg" else [(got, want)]
                assert all(_same(a, b) for a, b in parts), name


@given(st.lists(st.booleans() | st.just(NULL), max_size=6))
def test_quantifier_loops_stop_at_the_deciding_element(prefix):
    for m, deciding in ((ALL, False), (SOME, True)):
        undecided = [v for v in prefix if v is not deciding]

        def stream():
            yield from undecided
            yield deciding
            raise AssertionError("pulled the element after the deciding one")

        assert m.loop(m.zero, stream()) is deciding
        assert m.loop(m.zero, iter(undecided)) is m.zero


@given(st.integers(0, 5))
def test_avg_of_an_empty_or_all_null_stream_is_null(nulls):
    carrier = AVG.loop(AVG.zero, [NULL] * nulls)
    assert carrier == AVG.zero
    assert AVG.finalize(carrier) is NULL


# ---------------------------------------------------------------------------
# The folder: the one function that makes a fold's heads its value
# ---------------------------------------------------------------------------

#: Scalar heads, NULL among them (no NaN: it is not equal to itself).
_SCALARS = st.one_of(
    st.integers(-3, 3), st.sampled_from([0.0, -0.0, 0.5, 1e16]), st.booleans(),
    st.sampled_from(["a", "b"]), st.just(NULL),
)  # fmt: skip
#: Computed structs of scalars, with the fields ``a`` and ``b``.
_STRUCTS = st.builds(lambda a, b: Record(a=a, b=b), ints | st.just(NULL), ints)
#: A collection fold's heads: scalars, structs, or collections of them.
_COLLECTION_HEADS = st.lists(
    st.one_of(_SCALARS, _STRUCTS, st.lists(ints, max_size=2).map(BagValue)), max_size=8
)


@pytest.mark.parametrize("name", sorted(MONOIDS) + ["sorted[+-]"])
def test_folder_is_the_fold_of_the_heads(name):
    m = monoid(name)
    fold = folder(m)
    if name == "sorted[+-]":
        strategy = st.lists(heads, max_size=8)
    elif m.is_collection:
        strategy = _COLLECTION_HEADS
    else:
        strategy = STREAMS

    @given(strategy)
    def check(hs):
        got = fold(list(hs))
        if m.is_collection:
            want = m.finalize(m.fold(m.unit(h) for h in hs))
            assert got == want and type(got) is type(want)
            assert list(got.elements()) == list(want.elements())
        else:
            want = m.finalize(reference_fold(m, m.zero, hs))
            assert repr(got) == repr(want)
            assert _same(got, want)

    check()


@given(st.lists(_SCALARS | _STRUCTS, max_size=8))
def test_folder_of_a_plain_bag_counts_its_heads_as_they_are(hs):
    got, want = folder(BAG, plain=True)(list(hs)), BagValue(hs)
    assert got == want and list(got.elements()) == list(want.elements())
    assert folder(SET, plain=True)(list(hs)) == SetValue(hs)  # a bag's flag

