"""Unit tests for the repro.testing subsystem itself: generator
determinism and validity, oracle judgement, result comparison, invariant
checkers, the shrinker, and repro-file round-tripping."""

from __future__ import annotations

import random

import pytest

from repro.data.database import Database
from repro.data.schema import INT, Schema
from repro.data.values import NULL, BagValue, ListValue, Record, SetValue
from repro.oql.translator import parse_and_translate
from repro.testing.fuzz import FuzzConfig, generate_sample, run_fuzz
from repro.testing.invariants import (
    InvariantViolation,
    check_invariants,
    check_normal_form,
    check_plan_well_formed,
)
from repro.testing.oracle import (
    PATHS,
    check_sample,
    results_equal,
    run_all_paths,
)
from repro.testing.qgen import QueryGenerator
from repro.testing.repro_io import decode_sample, encode_sample
from repro.testing.schemagen import SchemaGenConfig, random_database
from repro.testing.shrink import rebuild_database, shrink


class TestGenerators:
    def test_database_generation_is_deterministic(self):
        db1, gen1 = random_database(11)
        db2, gen2 = random_database(11)
        assert db1.extent_names() == db2.extent_names()
        for name in db1.extent_names():
            assert db1.extent(name) == db2.extent(name)
            assert db1.indexed_attributes(name) == db2.indexed_attributes(name)
        assert gen1.extent_kinds == gen2.extent_kinds

    def test_query_generation_is_deterministic(self):
        _, generated = random_database(5)
        queries1 = [QueryGenerator(generated, random.Random(9)).query() for _ in range(3)]
        queries2 = [QueryGenerator(generated, random.Random(9)).query() for _ in range(3)]
        assert [q.source for q in queries1] == [q.source for q in queries2]
        assert [q.params for q in queries1] == [q.params for q in queries2]

    def test_sample_generation_is_deterministic(self):
        config = FuzzConfig(seed=4)
        first = generate_sample(config, 17)
        second = generate_sample(config, 17)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_generated_queries_parse_and_translate(self):
        for seed in range(10):
            db, generated = random_database(seed)
            gen = QueryGenerator(generated, random.Random(seed + 100))
            for _ in range(5):
                query = gen.query()
                parse_and_translate(query.source, db.schema)  # must not raise

    def test_every_object_has_an_engine_oid_of_its_own(self):
        # Stored objects get engine-assigned identities (Database.adopt);
        # generated schemas no longer carry a synthetic oid attribute.  An
        # OID seen twice is one object held twice, never two objects.
        db, _ = random_database(23)
        by_oid = {}
        for name in db.extent_names():
            for obj in db.extent(name).elements():
                assert "oid" not in obj
                kids = [
                    kid
                    for value in obj.values()
                    if hasattr(value, "elements")
                    for kid in value.elements()
                    if isinstance(kid, Record)
                ]
                for stored in [obj, *kids]:
                    assert stored.oid is not None
                    assert by_oid.setdefault(stored.oid, stored) == stored

    def test_synthetic_oid_attributes_behind_backcompat_flag(self):
        db, _ = random_database(23, SchemaGenConfig(synthetic_oids=True))
        attr_oids = []
        for name in db.extent_names():
            for obj in db.extent(name).elements():
                attr_oids.append(obj["oid"])
                for value in obj.values():
                    if hasattr(value, "elements"):
                        attr_oids.extend(kid["oid"] for kid in value.elements())
        assert len(attr_oids) == len(set(attr_oids))

    def test_generator_emits_duplicates_in_bags(self):
        # With duplicates enabled (the default), some seed produces a bag
        # extent holding two identity-distinct but value-equal objects, and
        # some seed one holding the same object twice; some bag or list of
        # scalars holds one value twice.
        found = set()
        for seed in range(40):
            db, generated = random_database(
                seed, SchemaGenConfig(duplicate_probability=0.5)
            )
            for name, kind in generated.extent_kinds.items():
                objs = list(db.extent(name).elements())
                if kind == "bag":
                    oids = {}
                    for obj in objs:
                        oids.setdefault(obj, []).append(obj.oid)
                    for twins in oids.values():
                        if len(set(twins)) > 1:
                            found.add("value-equal objects")
                        if len(set(twins)) < len(twins):
                            found.add("one object twice")
                for obj in objs:
                    vals = obj["vals"] if "vals" in obj else None
                    if isinstance(vals, (BagValue, ListValue)):
                        if len(set(vals.elements())) < len(vals):
                            found.add("one value twice")
        assert found == {"value-equal objects", "one object twice", "one value twice"}

    def test_params_only_contain_referenced_names(self):
        _, generated = random_database(3)
        gen = QueryGenerator(generated, random.Random(42))
        for _ in range(20):
            query = gen.query()
            for name in query.params:
                assert f":{name}" in query.source


class TestResultsEqual:
    def test_numeric_tower(self):
        assert results_equal(2, 2.0)
        assert results_equal(0.1 + 0.2, 0.30000000000000004)
        assert not results_equal(2, 3)

    def test_collections_modulo_order(self):
        assert results_equal(SetValue([1, 2]), SetValue([2, 1]))
        assert results_equal(BagValue([1, 1, 2]), BagValue([2, 1, 1]))
        assert not results_equal(BagValue([1, 1]), BagValue([1]))
        assert not results_equal(SetValue([1]), BagValue([1]))

    def test_null_and_records(self):
        assert results_equal(NULL, NULL)
        assert not results_equal(NULL, 0)
        assert results_equal(Record(a=1.0), Record(a=1))


class TestOracle:
    def test_path_roster_is_complete(self):
        names = [name for name, _ in PATHS]
        assert names[0] == "calculus-raw"  # the reference semantics
        assert "algebra-logical" in names
        assert "pipeline-cached" in names
        assert "param-roundtrip" in names
        # the physical-engine axes: chunk boundaries, the exchange, and the
        # non-default join algorithm
        assert {
            "pipeline-batched-exec",
            "pipeline-parallel-exec",
            "pipeline-nl-joins",
        } <= set(names)
        assert len(names) == len(set(names)) == 13

    def test_simple_query_agrees(self):
        db, _ = random_database(1)
        extent = db.extent_names()[0]
        verdict = check_sample(f"select v from v in {extent}", {}, db)
        assert verdict.agreed
        assert all(outcome.ok for outcome in verdict.outcomes)

    def test_all_paths_run(self):
        db, _ = random_database(1)
        extent = db.extent_names()[0]
        outcomes = run_all_paths(f"count( select v from v in {extent} )", {}, db)
        assert len(outcomes) == len(PATHS)

    def test_unparseable_query_agrees_on_error(self):
        db, _ = random_database(1)
        verdict = check_sample("select from nothing at all", {}, db)
        assert verdict.agreed
        assert not verdict.reference.ok

    def test_fixed_seed_run_is_green(self):
        report = run_fuzz(FuzzConfig(seed=2, iterations=40))
        assert report.ok, report.summary()
        assert report.iterations == 40
        assert report.agreed_ok + report.agreed_error == 40
        # The smoke run must reach both fused SQL forms (qgen's nested
        # aggregates correlated by `=` and by value), and say so.
        assert report.preaggregated > 0 and report.domains > 0, report.summary()
        assert "pre-aggregated, " in report.summary()
        assert "domain(s), " in report.summary()

    def test_fixed_seed_run_reaches_the_error_path(self):
        # qgen's faulting-head shape (~2% of samples) divides by `p - k`;
        # on some of those databases every path must fail alike — the only
        # differential evidence the kernels' error path gets.
        report = run_fuzz(FuzzConfig(seed=11, iterations=150))
        assert report.ok, report.summary()
        assert report.agreed_error > 0, report.summary()


class TestInvariants:
    def test_clean_on_generated_samples(self):
        config = FuzzConfig(seed=6)
        for iteration in range(10):
            source, params, db = generate_sample(config, iteration)
            assert check_invariants(source, params, db) == []

    def test_normal_form_rejects_let(self):
        from repro.calculus.terms import Const, Let, Var

        with pytest.raises(InvariantViolation, match="let"):
            check_normal_form(Let("x", Const(1), Var("x")))

    def test_plan_rejects_unbound_columns(self):
        from repro.algebra.operators import Reduce, Scan, Select
        from repro.calculus.terms import BinOp, const, path

        bad = Reduce(
            Select(Scan("X", "v"), BinOp("==", path("w", "k"), const(1))),
            "sum",
            const(1),
        )
        with pytest.raises(InvariantViolation, match="unbound"):
            check_plan_well_formed(bad)

    def test_plan_rejects_non_reduce_root(self):
        from repro.algebra.operators import Scan

        with pytest.raises(InvariantViolation, match="root"):
            check_plan_well_formed(Scan("X", "v"))


class TestShrinker:
    def _sample_db(self) -> Database:
        schema = Schema()
        schema.define_class("C0", oid=INT, k=INT)
        schema.define_extent("X", "C0")
        db = Database(schema)
        db.add_extent("X", [Record(oid=i, k=i % 3) for i in range(9)])
        db.create_index("X", "k")
        return db

    def test_shrinks_query_and_data(self):
        db = self._sample_db()
        # Interesting: the query still mentions the k = 1 comparison and
        # still returns at least one row on the default path.
        def interesting(source, params, candidate_db):
            if "v0.k = 1" not in source:
                return False
            try:
                from repro.core.pipeline import QueryPipeline

                result = QueryPipeline(candidate_db).run_oql(source, **params)
            except Exception:
                return False
            return hasattr(result, "elements") and len(result) > 0

        source = (
            "select distinct v0.oid from v0 in X "
            "where v0.k = 1 and (v0.oid >= 0 or v0.k < :q0)"
        )
        params = {"q0": 7}
        assert interesting(source, params, db)
        small_source, small_params, small_db = shrink(
            source, params, db, interesting
        )
        assert interesting(small_source, small_params, small_db)
        assert len(small_source) < len(source)
        assert small_params == {}  # the :q0 conjunct is droppable
        # ddmin gets the extent down to the single row that keeps the
        # result non-empty.
        assert len(small_db.extent("X")) == 1

    def test_rebuild_preserves_kinds_and_indexes(self):
        db = self._sample_db()
        contents = {"X": list(db.extent("X").elements())[:2]}
        rebuilt = rebuild_database(db, contents)
        assert len(rebuilt.extent("X")) == 2
        assert rebuilt.indexed_attributes("X") == ("k",)
        assert isinstance(rebuilt.extent("X"), type(db.extent("X")))

    def test_bag_duplicate_sample_no_longer_diverges(self):
        # The formerly pinned bag-duplicate divergence (padded with extra
        # objects).  The object-identity layer fixed it: the sample is no
        # longer "interesting" to the divergence hunter, and every path
        # agrees on it.
        from repro.data.schema import CollectionType, RecordType
        from repro.testing.shrink import default_interesting

        schema = Schema()
        schema.define_class(
            "C0", oid=INT, k=INT,
            kids=CollectionType("set", RecordType((("m", INT),))),
        )
        schema.define_class("C1", j=INT)
        schema.define_extent("X", "C0")
        schema.define_extent("Y", "C1")
        db = Database(schema)
        db.add_extent("X", [
            Record(oid=0, k=1, kids=SetValue([Record(m=5)])),
            Record(oid=1, k=2, kids=SetValue([])),
        ])
        db.add_extent("Y", [Record(j=1), Record(j=1), Record(j=7)], kind="bag")
        source = (
            "select struct( A: ( select v2.m from v2 in v0.kids, v3 in Y ) ) "
            "from v0 in X, v1 in Y"
        )
        assert not default_interesting(source, {}, db)
        verdict = check_sample(source, {}, db)
        assert verdict.agreed, verdict.describe()


class TestReproArtifactsStillBite:
    def test_const_memo_repro_needs_the_typed_memo_key(self, monkeypatch):
        # With two oracle paths gone, show the pinned artifact still
        # catches its bug: keying the kernel memo on the bare term again
        # (Const(True) == Const(1)) makes the default pipeline disagree
        # with the calculus interpreter on this sample.
        from pathlib import Path

        from repro.engine import compile as expr_compile
        from repro.testing.repro_io import load_repro

        source, params, db = load_repro(
            Path(__file__).parent
            / "fuzz_repros"
            / "compiled_const_memo_bool_int_conflation.json"
        )
        assert check_sample(source, params, db).agreed
        monkeypatch.setattr(
            expr_compile, "_memo_key", lambda kind, term: (kind, term)
        )
        verdict = check_sample(source, params, db)
        assert verdict.reference.path == "calculus-raw" and verdict.reference.ok
        assert "pipeline-default" in {
            outcome.path for outcome in verdict.disagreements()
        }


class TestReproIO:
    def test_round_trip(self):
        db, _ = random_database(13)
        source = "select v from v in X0 where v.oid = :q0"
        params = {"q0": 3, "q1": NULL}
        encoded = encode_sample(source, params, db, description="round trip")
        decoded_source, decoded_params, decoded_db = decode_sample(encoded)
        assert decoded_source == source
        assert decoded_params == params
        assert decoded_db.extent_names() == db.extent_names()
        for name in db.extent_names():
            assert decoded_db.extent(name) == db.extent(name)
            assert decoded_db.indexed_attributes(name) == db.indexed_attributes(name)

    def test_encoding_is_json_safe(self):
        import json

        db, _ = random_database(13)
        payload = encode_sample("select v from v in X0", {}, db)
        json.dumps(payload)  # must not raise
