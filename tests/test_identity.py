"""Object identity: engine OIDs, identity-aware keys, and the operators
that use them.

The paper's OO model makes two objects with identical state distinct;
these tests pin the identity layer end to end — OID allocation in
``Database.adopt``, identity-preserving bags, identity-aware grouping and
join keys, persistence round trips — plus the satellite fixes that rode
along (merge-join NULL/mixed-key hardening, the cost model's ndv=0 guard,
and the lexer's comment/escape handling).
"""

from __future__ import annotations

import pytest

from repro.algebra.operators import Join, Reduce, Scan, Select
from repro.calculus.terms import BinOp, const, path
from repro.data.database import Database
from repro.data.schema import INT, CollectionType, RecordType, Schema
from repro.data.storage import load_database, save_database
from repro.data.values import (
    NULL,
    BagValue,
    Record,
    SetValue,
    has_identity,
    identity_eq,
    identity_key,
)
from repro.engine.cost import CostModel
from repro.engine.planner import PlannerOptions, execute
from repro.oql.lexer import OQLSyntaxError, tokenize
from repro.testing.oracle import check_sample
from repro.testing.repro_io import decode_sample, encode_sample


def _bag_duplicate_db() -> Database:
    """One set extent X and a bag extent Y holding two value-equal objects
    — the shape behind the formerly pinned divergence."""
    schema = Schema()
    schema.define_class(
        "C0", k=INT, kids=CollectionType("set", RecordType((("m", INT),)))
    )
    schema.define_class("C1", j=INT)
    schema.define_extent("X", "C0")
    schema.define_extent("Y", "C1")
    db = Database(schema)
    db.add_extent("X", [Record(k=1, kids=SetValue([Record(m=5)]))])
    db.add_extent("Y", [Record(j=1), Record(j=1)], kind="bag")
    return db


class TestAdoption:
    def test_every_stored_object_gets_a_unique_oid(self):
        db = Database()
        db.add_extent("E", [Record(x=1), Record(x=1), Record(x=2)], kind="bag")
        oids = [obj.oid for obj in db.extent("E").elements()]
        assert None not in oids
        assert len(oids) == len(set(oids)) == 3

    def test_nested_objects_are_stamped_too(self):
        db = Database()
        db.add_extent(
            "E",
            [Record(kids=BagValue([Record(m=1), Record(m=1)]))],
        )
        (parent,) = db.extent("E").elements()
        kid_oids = [kid.oid for kid in parent["kids"].elements()]
        assert parent.oid is not None
        assert None not in kid_oids
        assert len(set(kid_oids)) == 2  # value-equal twins stay distinct

    def test_existing_oids_are_preserved_and_allocator_advances(self):
        db = Database()
        db.add_extent("E", [Record(x=1).with_oid(17)])
        (obj,) = db.extent("E").elements()
        assert obj.oid == 17
        db.add_extent("F", [Record(y=2)])
        (other,) = db.extent("F").elements()
        assert other.oid == 18

    def test_literals_and_computed_records_stay_identity_free(self):
        assert Record(x=1).oid is None
        assert not has_identity(Record(x=1))
        stamped = Record(x=1).with_oid(3)
        # Derived values are new values, not the stored object.
        assert stamped.with_field("y", 2).oid is None


class TestIdentityHelpers:
    def test_value_equality_ignores_identity(self):
        assert Record(j=1).with_oid(0) == Record(j=1).with_oid(1) == Record(j=1)
        assert hash(Record(j=1).with_oid(0)) == hash(Record(j=1))

    def test_identity_key_distinguishes_stamped_twins(self):
        a, b = Record(j=1).with_oid(0), Record(j=1).with_oid(1)
        assert identity_key(a) != identity_key(b)
        assert identity_key(a) == identity_key(Record(j=1).with_oid(0))

    def test_identity_key_is_the_value_for_plain_values(self):
        for value in (3, "red", NULL, Record(x=1), SetValue([1, 2])):
            assert identity_key(value) is value

    def test_identity_key_recurses_through_containers(self):
        a, b = Record(j=1).with_oid(0), Record(j=1).with_oid(1)
        assert identity_key(SetValue([a])) != identity_key(SetValue([b]))
        assert identity_key(Record(kid=a)) != identity_key(Record(kid=b))

    def test_identity_eq_matches_oo_semantics(self):
        a, b = Record(j=1).with_oid(0), Record(j=1).with_oid(1)
        assert not identity_eq(a, b)
        assert identity_eq(a, a)
        # A literal twin of a stored object is not that object.
        assert not identity_eq(a, Record(j=1))
        # Scalars keep plain value equality (across the numeric tower).
        assert identity_eq(2, 2.0)


class TestBagIdentity:
    def test_bag_keeps_value_equal_distinct_objects(self):
        a, b = Record(j=1).with_oid(0), Record(j=1).with_oid(1)
        bag = BagValue([a, b])
        assert len(bag) == 2
        assert {obj.oid for obj in bag.elements()} == {0, 1}

    def test_public_interface_is_value_based(self):
        a, b = Record(j=1).with_oid(0), Record(j=1).with_oid(1)
        bag = BagValue([a, b])
        assert bag.count(Record(j=1)) == 2
        assert Record(j=1) in bag
        assert bag == BagValue([Record(j=1), Record(j=1)])
        assert hash(bag) == hash(BagValue([Record(j=1), Record(j=1)]))

    def test_additive_union_merges_by_identity(self):
        a, b = Record(j=1).with_oid(0), Record(j=1).with_oid(1)
        union = BagValue([a]).additive_union(BagValue([b]))
        assert len(union) == 2
        assert {obj.oid for obj in union.elements()} == {0, 1}


class TestQuerySemantics:
    def test_all_paths_agree_on_duplicate_bearing_bag(self):
        db = _bag_duplicate_db()
        source = (
            "select struct( A: ( select v2.m from v2 in v0.kids, v3 in Y ) ) "
            "from v0 in X, v1 in Y"
        )
        verdict = check_sample(source, {}, db)
        assert verdict.agreed, verdict.describe()
        # Two distinct Y objects => two outer rows, each with {{5, 5}}.
        result = verdict.reference.value
        assert len(result) == 2
        for row in result.elements():
            assert sorted(row["A"].elements()) == [5, 5]

    def test_nested_query_groups_per_object_not_per_value(self):
        db = _bag_duplicate_db()
        source = "select ( select y2.j from y2 in Y ) from y1 in Y"
        verdict = check_sample(source, {}, db)
        assert verdict.agreed, verdict.describe()
        assert len(verdict.reference.value) == 2

    def test_object_equality_in_queries_is_identity(self):
        db = _bag_duplicate_db()
        # Each Y object equals only itself, so the equi-self-join over the
        # two value-equal duplicates yields 2 pairs, not 4.
        source = "sum( select 1 from a in Y, b in Y where a = b )"
        verdict = check_sample(source, {}, db)
        assert verdict.agreed, verdict.describe()
        assert verdict.reference.value == 2


class TestPersistenceRoundTrip:
    def test_storage_preserves_identity(self, tmp_path):
        db = _bag_duplicate_db()
        path = tmp_path / "db.json"
        save_database(db, path)
        restored = load_database(path)
        original = sorted(obj.oid for obj in db.extent("Y").elements())
        reloaded = sorted(obj.oid for obj in restored.extent("Y").elements())
        assert reloaded == original
        assert len(restored.extent("Y")) == 2

    def test_repro_io_preserves_identity(self):
        db = _bag_duplicate_db()
        encoded = encode_sample("select y from y in Y", {}, db)
        _, _, decoded = decode_sample(encoded)
        original = sorted(obj.oid for obj in db.extent("Y").elements())
        reloaded = sorted(obj.oid for obj in decoded.extent("Y").elements())
        assert reloaded == original

    def test_identity_free_artifacts_get_fresh_distinct_oids(self):
        # Old artifacts (no $oid) must still load, with duplicates re-stamped
        # as distinct objects.
        db = _bag_duplicate_db()
        encoded = encode_sample("select y from y in Y", {}, db)
        for obj in encoded["extents"]["Y"]["objects"]:
            obj.pop("$oid", None)
        _, _, decoded = decode_sample(encoded)
        oids = [obj.oid for obj in decoded.extent("Y").elements()]
        assert None not in oids
        assert len(set(oids)) == 2


class TestEquiJoinKeyHardening:
    def _count_join(self, db: Database, outer: bool = False, hash_joins=True):
        from repro.algebra.operators import OuterJoin

        join_cls = OuterJoin if outer else Join
        plan = Reduce(
            join_cls(
                Scan("L", "l"),
                Scan("R", "r"),
                BinOp("==", path("l", "k"), path("r", "k")),
            ),
            "sum",
            const(1),
        )
        return execute(plan, db, PlannerOptions(hash_joins=hash_joins))

    def test_null_right_keys_filtered_symmetrically(self):
        db = Database()
        db.add_extent("L", [Record(k=1), Record(k=NULL)])
        db.add_extent("R", [Record(k=1), Record(k=NULL), Record(k=NULL)])
        # NULL never equi-joins: exactly the 1=1 pair survives.
        assert self._count_join(db) == 1
        # Outer join still pads every unmatched left row (NULL key included).
        assert self._count_join(db, outer=True) == 2

    def test_mixed_type_keys_do_not_raise(self):
        db = Database()
        db.add_extent("L", [Record(k=1), Record(k="red")])
        db.add_extent("R", [Record(k="red"), Record(k=2), Record(k=1)])
        assert self._count_join(db) == 2

    def test_identity_keys_hash_like_the_nested_loop_compares(self):
        db = Database()
        db.add_extent("L", [Record(k=Record(j=1)), Record(k=Record(j=1))], kind="bag")
        db.add_extent("R", [Record(k=Record(j=1))])
        assert self._count_join(db) == self._count_join(db, hash_joins=False)


class TestCostModelGuard:
    def test_zero_ndv_falls_back_to_default_selectivity(self):
        db = Database()
        db.add_extent("X", [])
        db.analyze()
        # An analyzed-but-empty extent can report ndv = 0; the estimate must
        # fall back to the textbook 0.1, not divide by zero.
        db._statistics[("X", "k")] = 0
        plan = Select(Scan("X", "v"), BinOp("==", path("v", "k"), const(1)))
        model = CostModel(db)
        assert model._selection_selectivity(plan) == pytest.approx(0.1)


class TestLexerRegressions:
    def test_line_comment_at_eof_without_newline(self):
        tokens = tokenize("select 1 from x in X -- trailing comment")
        assert tokens[-1].kind == "eof"
        assert all(t.kind != "symbol" or t.value != "-" for t in tokens)

    def test_string_escapes(self):
        (token, _) = tokenize(r'"a\"b\\c\nd\te\rf"')
        assert token.kind == "string"
        assert token.value == 'a"b\\c\nd\te\rf'

    def test_escaped_quote_does_not_terminate(self):
        (token, _) = tokenize(r'"say \"hi\""')
        assert token.value == 'say "hi"'

    def test_unterminated_string_raises(self):
        with pytest.raises(OQLSyntaxError, match="unterminated"):
            tokenize('"no closing quote')
        with pytest.raises(OQLSyntaxError, match="unterminated"):
            tokenize('"ends in backslash\\')

    def test_unknown_escape_raises(self):
        with pytest.raises(OQLSyntaxError, match="unknown string escape"):
            tokenize(r'"\q"')

    def test_pretty_printer_escapes_round_trip(self):
        from repro.oql.parser import parse
        from repro.oql.pretty import unparse

        source = r'select e from e in E where e.s = "a\"b\\c\nd"'
        printed = unparse(parse(source))
        assert parse(printed) == parse(source)
