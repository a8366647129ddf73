"""Unit tests for the persistence layer (repro.data.storage) and ANALYZE
statistics."""

from __future__ import annotations

import json

import pytest

from repro.data.database import Database
from repro.data.datagen import company_database, travel_database
from repro.data.schema import INT, STRING, Schema, record_of, set_of
from repro.data.storage import (
    StorageError,
    database_from_dict,
    database_to_dict,
    decode_type,
    decode_value,
    encode_type,
    encode_value,
    load_database,
    save_database,
)
from repro.data.values import NULL, BagValue, ListValue, Record, SetValue


class TestValueRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            42,
            3.5,
            "text",
            True,
            False,
            NULL,
            Record(a=1, b="x"),
            SetValue([1, 2, 3]),
            BagValue([1, 1, 2]),
            ListValue([3, 1, 2]),
            Record(
                nested=SetValue([Record(k=1), Record(k=2)]),
                bags=BagValue(["a", "a"]),
                maybe=NULL,
            ),
            SetValue([ListValue([1, 2]), ListValue([2, 1])]),
        ],
        ids=repr,
    )
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_bag_multiplicity_preserved(self):
        bag = BagValue([Record(x=1)] * 3 + [Record(x=2)])
        restored = decode_value(encode_value(bag))
        assert restored.count(Record(x=1)) == 3

    def test_encoded_form_is_json(self):
        value = Record(s=SetValue([1, NULL]))
        json.dumps(encode_value(value))  # must not raise

    def test_decode_bad_tag(self):
        with pytest.raises(StorageError, match="unknown value tag"):
            decode_value({"$mystery": 1})

    def test_encode_unsupported(self):
        with pytest.raises(StorageError, match="cannot encode"):
            encode_value(object())


class TestTypeRoundTrip:
    @pytest.mark.parametrize(
        "type_",
        [
            INT,
            STRING,
            set_of(INT),
            record_of(a=INT, b=set_of(record_of(x=STRING))),
        ],
        ids=str,
    )
    def test_round_trip(self, type_):
        assert decode_type(encode_type(type_)) == type_

    def test_unknown_primitive(self):
        with pytest.raises(StorageError, match="unknown primitive"):
            decode_type("quaternion")


class TestDatabaseRoundTrip:
    def test_company_database(self, tmp_path):
        db = company_database(num_employees=12, num_departments=3, seed=13)
        db.create_index("Employees", "dno")
        path = tmp_path / "company.json"
        save_database(db, path)
        restored = load_database(path)
        for extent in db.extent_names():
            assert restored.extent(extent) == db.extent(extent)
        assert restored.schema.extents == db.schema.extents
        assert restored.schema.classes == db.schema.classes
        assert restored.has_index("Employees", "dno")
        assert restored.index_lookup("Employees", "dno", 1) == sorted(
            db.index_lookup("Employees", "dno", 1), key=repr
        ) or len(restored.index_lookup("Employees", "dno", 1)) == len(
            db.index_lookup("Employees", "dno", 1)
        )

    def test_queries_agree_after_round_trip(self, tmp_path):
        from repro.core.optimizer import Optimizer

        db = travel_database(num_cities=3, hotels_per_city=3, seed=13)
        path = tmp_path / "travel.json"
        save_database(db, path)
        restored = load_database(path)
        source = (
            "select distinct h.name from c in Cities, h in c.hotels "
            "where h.price < 200"
        )
        assert Optimizer(restored).run_oql(source) == Optimizer(db).run_oql(source)

    def test_extent_kinds_preserved(self, tmp_path):
        db = Database()
        db.add_extent("S", [1, 2], kind="set")
        db.add_extent("B", [1, 1], kind="bag")
        db.add_extent("L", [2, 1], kind="list")
        path = tmp_path / "kinds.json"
        save_database(db, path)
        restored = load_database(path)
        assert isinstance(restored.extent("S"), SetValue)
        assert isinstance(restored.extent("B"), BagValue)
        assert isinstance(restored.extent("L"), ListValue)
        assert restored.extent("L") == ListValue([2, 1])

    def test_bad_format_marker(self):
        with pytest.raises(StorageError, match="format marker"):
            database_from_dict({"format": "something-else"})

    def test_bad_version(self):
        with pytest.raises(StorageError, match="version"):
            database_from_dict({"format": "repro-db", "version": 99})

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(StorageError, match="corrupt"):
            load_database(path)

    def test_dict_form_is_json_serializable(self):
        db = company_database(num_employees=5, num_departments=2, seed=13)
        json.dumps(database_to_dict(db))


def _image(drop=None, **extent):
    """A valid one-extent image with the extent's entries overridden (and
    its *drop* entry removed)."""
    db = Database()
    db.add_extent("E", [Record(k=1)])
    image = database_to_dict(db)
    image["extents"]["E"].update(extent)
    image["extents"]["E"].pop(drop, None)
    return image


class TestMalformedImage:
    """An image is outside input: valid JSON of the wrong shape is a
    ``StorageError`` naming what is wrong, through both entry points."""

    CASES = {
        "extent-without-items": (
            _image(drop="items"),
            "extent 'E' needs an array of 'items'",
        ),
        "bag-not-an-array": (_image(items=[{"$bag": 7}]), r"\$bag must be an array"),
        "record-not-an-object": (
            _image(items=[{"$record": [1]}]),
            r"\$record must be an object",
        ),
        "unknown-kind": (_image(kind="heap"), "extent 'E' needs a 'kind' of"),
        "classes-not-an-object": (
            {**_image(), "schema": {"classes": []}},
            "schema 'classes' must be an object",
        ),
        "oid-not-an-integer": (
            _image(items=[{"$record": {"k": 1}, "$oid": "7"}]),
            r"\$oid must be an integer",
        ),
        "index-not-a-pair": ({**_image(), "indexes": [["E"]]}, r"index \['E'\] is no"),
        "index-on-missing-attribute": (
            {**_image(), "indexes": [["E", "ghost"]]},
            "objects lack that attribute",
        ),
        "index-on-missing-extent": (
            {**_image(), "indexes": [["F", "k"]]},
            "unknown extent 'F'",
        ),
        "not-an-object": ([1, 2], "format marker"),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_raises_storage_error(self, name, tmp_path):
        image, message = self.CASES[name]
        with pytest.raises(StorageError, match=message):
            database_from_dict(image)
        path = tmp_path / "image.json"
        path.write_text(json.dumps(image))
        with pytest.raises(StorageError, match=message):
            load_database(path)

    def test_version_1_image_is_refused_by_its_version(self):
        # Version 1 wrote a bag as [[item, count]] pairs, which version 2
        # would read as a bag of lists.
        image = _image(items=[{"$bag": [[1, 2]]}])
        image["version"] = 1
        with pytest.raises(StorageError, match="unsupported format version 1"):
            database_from_dict(image)


from hypothesis import given, settings, strategies as st

_scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
    st.booleans(),
    st.just(NULL),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.dictionaries(
            st.text(alphabet="abcdefgh", min_size=1, max_size=4),
            children,
            max_size=3,
        ).map(Record),
        st.lists(children, max_size=4).map(SetValue),
        st.lists(children, max_size=4).map(BagValue),
        st.lists(children, max_size=4).map(ListValue),
    ),
    max_leaves=12,
)


class TestValueRoundTripProperty:
    """Hypothesis: arbitrary nested values survive the round trip."""

    @settings(max_examples=150, deadline=None)
    @given(value=_values)
    def test_round_trip(self, value):
        restored = decode_value(encode_value(value))
        assert restored == value


class TestAnalyze:
    def test_distinct_counts(self):
        db = Database()
        db.add_extent("E", [Record(k=i % 3, v=i) for i in range(9)])
        assert db.distinct_count("E", "k") is None  # not analyzed yet
        db.analyze()
        assert db.distinct_count("E", "k") == 3
        assert db.distinct_count("E", "v") == 9
        assert db.distinct_count("E", "ghost") is None

    def test_cost_model_uses_statistics(self):
        from repro.algebra.operators import Scan, Select
        from repro.calculus.terms import BinOp, Proj, Var, const
        from repro.engine.cost import CostModel

        db = Database()
        # the id attribute keeps all 100 records distinct in the set extent
        db.add_extent("E", [Record(id=i, k=i % 2, u=i % 50) for i in range(100)])
        db.analyze()
        model = CostModel(db)
        scan = Scan("E", "e")
        coarse = Select(scan, BinOp("==", Proj(Var("e"), "k"), const(1)))
        fine = Select(scan, BinOp("==", Proj(Var("e"), "u"), const(1)))
        # k has 2 distinct values, u has 50: the estimates must reflect it.
        assert model.cardinality(coarse) == pytest.approx(100 / 2)
        assert model.cardinality(fine) == pytest.approx(100 / 50)

    def test_unanalyzed_falls_back_to_default(self):
        from repro.algebra.operators import Scan, Select
        from repro.calculus.terms import BinOp, Proj, Var, const
        from repro.engine.cost import CostModel

        db = Database()
        db.add_extent("E", [Record(k=i) for i in range(10)])
        model = CostModel(db)
        select = Select(Scan("E", "e"), BinOp("==", Proj(Var("e"), "k"), const(1)))
        assert model.cardinality(select) == pytest.approx(10 * 0.1)
