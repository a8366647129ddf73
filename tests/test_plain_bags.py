"""Plain bags: a bag whose elements the plan's typing finds to be their own
identity keys — scalars, or structs built of scalar fields — counts them as
they are (``BagValue.of_plain``), with no key computed per element.

Three operators build bags: a ``Map`` binding whose kernel is a bag
comprehension, the root ``Reduce`` and a ``HashNest``'s groups.  A head
that carries a stored object is not plain, so equal-state twins stay two
objects at each of them; the corpus's bags of computed structs are plain.
"""

from __future__ import annotations

import pytest

from corpus import corpus_by_name
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.datagen import company_database
from repro.data.schema import INT, CollectionType, RecordType, Schema
from repro.data.values import BagValue, CollectionValue, Record


def _twins_db() -> Database:
    """A bag extent Y of two equal-state objects, and one X whose ``kids``
    bag holds two more."""
    schema = Schema()
    schema.define_class(
        "C0", k=INT, kids=CollectionType("bag", RecordType((("m", INT),)))
    )
    schema.define_class("C1", j=INT)
    schema.define_extent("X", "C0")
    schema.define_extent("Y", "C1")
    db = Database(schema)
    db.add_extent("X", [Record(k=1, kids=BagValue([Record(m=5), Record(m=5)]))])
    db.add_extent("Y", [Record(j=1), Record(j=1)], kind="bag")
    return db


def _oids(value) -> list:
    """The OIDs of the stored objects in *value*, in element order."""
    if isinstance(value, Record):
        if value.oid is not None:
            return [value.oid]
        return [oid for field in value.values() for oid in _oids(field)]
    if isinstance(value, CollectionValue):
        return [oid for element in value.elements() for oid in _oids(element)]
    return []


@pytest.fixture()
def builds(monkeypatch):
    """How many bags were built through ``BagValue(...)`` and through
    ``BagValue.of_plain`` since the fixture was made (patch before compiling:
    kernels and nests bind the constructor when the plan is built)."""
    counts = {"generic": 0, "plain": 0}
    init, of_plain = BagValue.__init__, BagValue.of_plain.__func__

    def counted_init(self, items=()):
        counts["generic"] += 1
        init(self, items)

    def counted_of_plain(cls, items):
        counts["plain"] += 1
        return of_plain(cls, items)

    monkeypatch.setattr(BagValue, "__init__", counted_init)
    monkeypatch.setattr(BagValue, "of_plain", classmethod(counted_of_plain))
    return counts


@pytest.mark.parametrize(
    "source, operator",
    [
        ("select struct(E: y, K: 1) from y in Y", "Reduce"),
        (
            "select struct(K: x.k, R: (select struct(E: c, K: 1) from c in x.kids)) "
            "from x in X",
            "Map",
        ),
        (
            "select distinct struct(K: x.k, R: (select struct(E: y, K: 1) from y in Y "
            "where y.j = x.k and y.j > avg(select z.j - 1 from z in Y where z.j = x.k))) "
            "from x in X",
            "HashNest",
        ),
    ],
)
def test_a_struct_holding_an_object_keeps_equal_state_twins(source, operator, builds):
    db = _twins_db()
    compiled = QueryPipeline(db).compile_oql(source)
    assert f"{operator}(" in compiled.physical(db).explain()
    builds["generic"] = builds["plain"] = 0
    oids = _oids(compiled.execute(db))
    assert len(oids) == 2 and len(set(oids)) == 2
    assert builds["plain"] == 0


@pytest.fixture(scope="module")
def company_l():
    return company_database(2500, 40, seed=1998)


@pytest.mark.parametrize(
    "source, plain",
    [
        (corpus_by_name("nested_struct_heads").oql, 2500),
        (corpus_by_name("bag_of_aggregates").oql, 1),
        ("select e from e in Employees", 0),
    ],
)
def test_corpus_bags_of_computed_structs_are_plain(company_l, source, plain, builds):
    compiled = QueryPipeline(company_l).compile_oql(source)
    compiled.physical(company_l)
    builds["generic"] = builds["plain"] = 0
    compiled.execute(company_l)
    assert builds == {"generic": 1 - bool(plain), "plain": plain}
