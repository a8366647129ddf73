"""Laws of the value layer (repro.data.values), checked with Hypothesis.

The strategy builds nested records, sets, bags and lists over mixed ints,
floats and bools (``-0.0`` included), strings and ``NULL``, with stored
records carrying OIDs: value-equal twins under different OIDs, and distinct
copies of one object under the same OID.  Some sets are sets of records
over one name set in either insertion order, as a query's root set of
structs is, so their membership is built lazily, by the law that first
needs it.  Three laws are checked:

- ``a == b`` implies ``hash(a) == hash(b)``;
- a :class:`BagValue` behaves exactly like :class:`RefBag`, the plain
  implementation below (one ``(first element, multiplicity)`` entry per
  identity key), and :func:`identity_key` / :func:`exact_key` agree with
  their plain references;
- over identity-free items (scalars, NULL, structs of those), a bag counted
  as it is (:meth:`BagValue.of_plain`) is the bag ``BagValue`` keys;
- :func:`decode_value` inverts :func:`encode_value` up to ``repr``.

The ``value-laws-ci`` profile registered here raises the example budget.
Hypothesis fixes a test's settings when ``@given`` decorates it, so this
module loads the profile itself when asked to::

    HYPOTHESIS_PROFILE=value-laws-ci pytest tests/test_value_laws.py \\
        --hypothesis-seed 27
"""

from __future__ import annotations

import json
import os
from math import copysign

from hypothesis import given, settings, strategies as st

from repro.data.codec import decode_value, encode_value
from repro.data.values import (
    NULL,
    BagValue,
    ListValue,
    Record,
    SetValue,
    exact_key,
    identity_key,
)

settings.register_profile("value-laws-ci", max_examples=1000, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "value-laws-ci":
    settings.load_profile("value-laws-ci")


# ---------------------------------------------------------------------------
# Reference: a bag as one (first element, multiplicity) entry per identity
# key, and identity / exact keys recomputed from scratch (no cached keys)
# ---------------------------------------------------------------------------


class RefBag:
    def __init__(self, items=()):
        self.entries = {}
        for item in items:
            self._add(ref_identity_key(item), item, 1)

    def _add(self, key, value, count):
        found = self.entries.get(key)
        self.entries[key] = (value, count) if found is None else (found[0], found[1] + count)

    @classmethod
    def from_counts(cls, counts):
        bag = cls()
        for value, count in counts.items():
            if count > 0:
                bag._add(ref_identity_key(value), value, count)
        return bag

    def additive_union(self, other):
        bag = RefBag()
        bag.entries = dict(self.entries)
        for key, (value, count) in other.entries.items():
            bag._add(key, value, count)
        return bag

    def value_counts(self):
        counts = {}
        for value, count in self.entries.values():
            counts[value] = counts.get(value, 0) + count
        return counts

    def elements(self):
        return [value for value, count in self.entries.values() for _ in range(count)]

    def count(self, value):
        return sum(c for v, c in self.entries.values() if v == value)

    def __contains__(self, value):
        return any(v == value for v, _ in self.entries.values())

    def __eq__(self, other):
        return self.value_counts() == other.value_counts()

    def __hash__(self):
        return hash(("bag", frozenset(self.value_counts().items())))

    def identity_key(self, bag):
        if all(key is entry[0] for key, entry in self.entries.items()):
            return bag
        return ("\x00bag", frozenset((k, c) for k, (_, c) in self.entries.items()))

    def exact_key(self):
        return ("\x00bag", tuple((ref_exact_key(v), c) for v, c in self.entries.values()))

    def encode(self):
        return {"$bag": [encode_value(v) for v in self.elements()]}


def ref_identity_key(value):
    if isinstance(value, Record):
        if value.oid is not None:
            return ("\x00oid", value.oid)
        items = tuple(sorted(value.items()))
        parts = tuple((attr, ref_identity_key(v)) for attr, v in items)
        if all(part is v for (_, part), (_, v) in zip(parts, items)):
            return value
        return ("\x00rec", parts)
    if isinstance(value, SetValue):
        keys = frozenset(ref_identity_key(v) for v in value.elements())
        return value if keys == frozenset(value.elements()) else ("\x00set", keys)
    if isinstance(value, BagValue):
        return RefBag(value.elements()).identity_key(value)
    if isinstance(value, ListValue):
        keys = tuple(ref_identity_key(v) for v in value.elements())
        if all(k is v for k, v in zip(keys, value.elements())):
            return value
        return ("\x00list", keys)
    return value


def ref_exact_key(value):
    cls = value.__class__
    if cls is float and not value:
        return (cls, value, copysign(1.0, value))
    if isinstance(value, Record):
        if value.oid is not None:
            return ("\x00oid", value.oid)
        return ("\x00rec", tuple((a, ref_exact_key(v)) for a, v in sorted(value.items())))
    if isinstance(value, SetValue):
        return ("\x00set", tuple(map(ref_exact_key, value.elements())))
    if isinstance(value, BagValue):
        return RefBag(value.elements()).exact_key()
    if isinstance(value, ListValue):
        return ("\x00list", tuple(map(ref_exact_key, value.elements())))
    return (cls, value)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

ATTRS = st.sampled_from("abc")
SCALARS = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5]),
    st.booleans(),
    st.sampled_from(["", "a"]),
    st.just(NULL),
)
#: One object stored twice, and two value-equal objects under other OIDs.
SHARED = [Record(a=1).with_oid(0), Record(a=1).with_oid(1), Record(a=1.0).with_oid(2)]


def stored(fields):
    # A fresh object per draw: under an OID already drawn it is a second
    # copy of that object, a distinct Python object with the same key.
    return st.builds(
        lambda f, oid: Record(f).with_oid(oid),
        st.dictionaries(ATTRS, fields, max_size=3),
        st.integers(0, 3),
    )


def _struct(fields, flip, oid):
    record = Record(dict(reversed(fields.items())) if flip else fields)
    return record if oid is None else record.with_oid(oid)


def structs(inner):
    """A set of records over the fields ``a`` and ``b`` (either insertion
    order, some stored), built as a query's ``select distinct struct(b: …,
    a: …)`` is: deduplicated on its records, its membership built on first
    use."""
    fields = st.fixed_dictionaries({"a": inner, "b": SCALARS})
    oids = st.none() | st.integers(0, 3)
    record = st.builds(_struct, fields, st.booleans(), oids)
    return st.lists(record, max_size=3).map(SetValue)


def _extend(inner):
    items = st.lists(inner, max_size=5)
    return st.one_of(
        st.dictionaries(ATTRS, inner, max_size=3).map(Record),
        stored(inner),
        items.map(SetValue),
        structs(inner),
        items.map(BagValue),
        items.map(ListValue),
    )


LEAVES = st.one_of(SCALARS, st.sampled_from(SHARED), stored(SCALARS))
#: Items that are their own identity keys: scalars, NULL, computed structs.
PLAIN = st.one_of(SCALARS, st.dictionaries(ATTRS, SCALARS, max_size=3).map(Record))
VALUES = st.recursive(LEAVES, _extend, max_leaves=12)
ITEMS = st.lists(VALUES, max_size=8)


def twin(value):
    """An equal value built differently: fields and set/bag members in
    reverse order, ints as floats and back, bools as ints."""
    cls = value.__class__
    if cls is bool:
        return int(value)
    if cls is int:
        return float(value)
    if cls is float and value.is_integer():
        return int(value)
    if isinstance(value, Record):
        copy = Record({a: twin(v) for a, v in reversed(list(value.items()))})
        return copy if value.oid is None else copy.with_oid(value.oid)
    if isinstance(value, (SetValue, BagValue)):
        return type(value)(twin(v) for v in reversed(list(value.elements())))
    if isinstance(value, ListValue):
        return ListValue(twin(v) for v in value.elements())
    return value


def same_objects(left, right):
    left, right = list(left), list(right)
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


# ---------------------------------------------------------------------------
# Laws
# ---------------------------------------------------------------------------


@given(VALUES, VALUES)
def test_equal_values_hash_equal(a, b):
    b_twin = twin(a)
    assert a == b_twin and hash(a) == hash(b_twin)
    if a == b:
        assert hash(a) == hash(b)


@given(VALUES)
def test_identity_and_exact_keys_match_the_reference(value):
    key, ref = identity_key(value), ref_identity_key(value)
    assert (key is value) == (ref is value)
    assert key == ref
    assert exact_key(value) == ref_exact_key(value)


@given(ITEMS, st.lists(VALUES, max_size=3))
def test_bag_matches_the_reference(items, probes):
    bag, ref = BagValue(items), RefBag(items)
    assert same_objects(bag.elements(), ref.elements())
    assert same_objects(BagValue(bag).elements(), ref.elements())
    assert len(bag) == len(ref.elements())
    for probe in items + probes:
        assert bag.count(probe) == ref.count(probe)
        assert (probe in bag) == (probe in ref)
    assert hash(bag) == hash(ref)
    assert identity_key(bag) == ref.identity_key(bag)
    assert (identity_key(bag) is bag) == (ref.identity_key(bag) is bag)
    assert exact_key(bag) == ref.exact_key()
    assert encode_value(bag) == ref.encode()


@given(ITEMS, ITEMS)
def test_bag_equality_and_union_match_the_reference(left, right):
    for other in (right, [twin(v) for v in reversed(left)], left[1:]):
        assert (BagValue(left) == BagValue(other)) == (RefBag(left) == RefBag(other))
    union = BagValue(left).additive_union(BagValue(right))
    ref = RefBag(left).additive_union(RefBag(right))
    assert same_objects(union.elements(), ref.elements())
    assert union == BagValue(ref.elements())
    assert identity_key(union) == ref.identity_key(union)
    assert exact_key(union) == ref.exact_key()


@given(st.dictionaries(VALUES, st.integers(-1, 3), max_size=6))
def test_bag_from_counts_matches_the_reference(counts):
    bag, ref = BagValue.from_counts(counts), RefBag.from_counts(counts)
    assert same_objects(bag.elements(), ref.elements())
    assert identity_key(bag) == ref.identity_key(bag)
    assert exact_key(bag) == ref.exact_key()


@given(st.lists(PLAIN, max_size=8))
def test_plain_bag_is_the_keyed_bag(items):
    plain, keyed = BagValue.of_plain(items), BagValue(items)
    assert plain == keyed and hash(plain) == hash(keyed)
    assert repr(plain) == repr(keyed)
    assert same_objects(plain.elements(), keyed.elements())
    assert same_objects(plain._counts, keyed._counts)
    assert list(plain._counts.values()) == list(keyed._counts.values())
    assert plain._value_counts() is plain._counts


@given(VALUES)
def test_codec_round_trips_up_to_repr(value):
    wire = json.loads(json.dumps(encode_value(value)))
    assert repr(decode_value(wire)) == repr(value)
