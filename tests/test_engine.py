"""Unit tests for the physical engine: operator algorithms, the planner's
algorithm assignment, EXPLAIN output, and row accounting."""

from __future__ import annotations

import pytest

from repro.algebra.operators import (
    Join,
    Nest,
    OuterJoin,
    Reduce,
    Scan,
    Select,
    Unnest,
)
from repro.calculus.terms import (
    BinOp,
    Const,
    comprehension,
    const,
    free_vars,
    path,
    var,
)
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.values import BagValue, Record, SetValue
from repro.engine.planner import (
    PlannerOptions,
    execute,
    plan_physical,
    split_equi_conjuncts,
)
from repro.engine.physical import (
    Execution,
    PHashJoin,
    PHashNest,
    PReduce,
    PScan,
    PSelect,
)


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.add_extent(
        "R", [Record(k=i, v=i * 10) for i in range(6)]
    )
    database.add_extent(
        "S", [Record(k=i % 3, w=i) for i in range(6)]
    )
    return database


def join_plan(pred):
    return Reduce(
        Join(Scan("R", "r"), Scan("S", "s"), pred),
        "sum",
        const(1),
    )


class TestEquiKeyExtraction:
    def test_simple_equality(self):
        pred = BinOp("==", path("r", "k"), path("s", "k"))
        keys, residual = split_equi_conjuncts(pred, ("r",), ("s",))
        assert len(keys) == 1 and residual == []

    def test_reversed_sides(self):
        pred = BinOp("==", path("s", "k"), path("r", "k"))
        keys, residual = split_equi_conjuncts(pred, ("r",), ("s",))
        assert len(keys) == 1
        left_key, right_key = keys[0]
        assert left_key == path("r", "k") and right_key == path("s", "k")

    def test_mixed_conjuncts(self):
        pred = BinOp(
            "and",
            BinOp("==", path("r", "k"), path("s", "k")),
            BinOp("<", path("r", "v"), path("s", "w")),
        )
        keys, residual = split_equi_conjuncts(pred, ("r",), ("s",))
        assert len(keys) == 1 and len(residual) == 1

    def test_non_equality_not_extracted(self):
        pred = BinOp("<", path("r", "k"), path("s", "k"))
        keys, residual = split_equi_conjuncts(pred, ("r",), ("s",))
        assert keys == [] and len(residual) == 1

    def test_same_side_equality_not_extracted(self):
        pred = BinOp("==", path("r", "k"), path("r", "v"))
        keys, residual = split_equi_conjuncts(pred, ("r",), ("s",))
        assert keys == [] and len(residual) == 1

    def test_constant_equality_not_extracted(self):
        pred = BinOp("==", path("r", "k"), const(3))
        keys, residual = split_equi_conjuncts(pred, ("r",), ("s",))
        assert keys == []


class TestAlgorithmAssignment:
    def test_equi_join_gets_hash_join(self, db):
        plan = join_plan(BinOp("==", path("r", "k"), path("s", "k")))
        physical = plan_physical(plan, db)
        assert isinstance(physical.child, PHashJoin)

    def test_theta_join_gets_nested_loop(self, db):
        plan = join_plan(BinOp("<", path("r", "k"), path("s", "k")))
        physical = plan_physical(plan, db)
        assert isinstance(physical.child, PHashJoin)
        assert physical.child.left_keys == ()
        assert physical.child.describe().startswith("NLJoin(")

    def test_hash_joins_disabled(self, db):
        plan = join_plan(BinOp("==", path("r", "k"), path("s", "k")))
        physical = plan_physical(plan, db, PlannerOptions(hash_joins=False))
        assert isinstance(physical.child, PHashJoin)
        assert physical.child.left_keys == ()
        assert physical.child.describe().startswith("NLJoin(")

    def test_nest_gets_hash_nest(self, db):
        plan = Reduce(
            Nest(Scan("S", "s"), "sum", path("s", "w"), ("s",), (), "m"),
            "set",
            var("m"),
        )
        physical = plan_physical(plan, db)
        assert isinstance(physical.child, PHashNest)


class TestExecution:
    def test_hash_and_nl_agree_inner(self, db):
        plan = join_plan(BinOp("==", path("r", "k"), path("s", "k")))
        hashed = execute(plan, db)
        looped = execute(plan, db, PlannerOptions(hash_joins=False))
        assert hashed == looped == 6  # keys 0,1,2 each match twice

    def test_hash_and_nl_agree_outer(self, db):
        plan = Reduce(
            OuterJoin(
                Scan("R", "r"), Scan("S", "s"),
                BinOp("==", path("r", "k"), path("s", "k")),
            ),
            "sum",
            const(1),
        )
        hashed = execute(plan, db)
        looped = execute(plan, db, PlannerOptions(hash_joins=False))
        # 6 matches + 3 padded rows for r.k in {3,4,5}
        assert hashed == looped == 9

    def test_residual_predicate_applied(self, db):
        pred = BinOp(
            "and",
            BinOp("==", path("r", "k"), path("s", "k")),
            BinOp(">", path("s", "w"), const(2)),
        )
        assert execute(join_plan(pred), db) == execute(
            join_plan(pred), db, PlannerOptions(hash_joins=False)
        )

    def test_unnest(self, db):
        database = Database()
        database.add_extent(
            "T", [Record(xs=SetValue([1, 2])), Record(xs=SetValue([3]))]
        )
        plan = Reduce(
            Unnest(Scan("T", "t"), path("t", "xs"), "x"), "sum", var("x")
        )
        assert execute(plan, database) == 6

    def test_reduce_short_circuits_some(self, db):
        plan = Reduce(
            Scan("R", "r"), "some", BinOp(">=", path("r", "k"), const(0))
        )
        # the predicate holds for every row, so the very first row decides:
        # the reduce short-circuits at chunk granularity, reading one chunk
        # instead of the extent.
        for size in (1, 2):
            physical = plan_physical(plan, db, PlannerOptions(batch_size=size))
            ex = Execution(physical)
            assert physical.value(ex) is True
            assert ex.counts[physical.children()[0]].rows_produced == size

    def test_rows_produced_accounting(self, db):
        physical = plan_physical(
            Reduce(
                Select(Scan("R", "r"), BinOp("<", path("r", "k"), const(3))),
                "sum",
                const(1),
            ),
            db,
        )
        ex = Execution(physical)
        assert physical.value(ex) == 3
        select = physical.children()[0]
        assert isinstance(select, PSelect)
        assert ex.counts[select].rows_produced == 3
        assert ex.counts[select.children()[0]].rows_produced == 6
        # 6 (scan) + 3 (select) + 1 (the root's scalar result row)
        assert physical.total_rows(ex) == 10


class TestExplain:
    def test_explain_mentions_algorithms(self, db):
        plan = join_plan(BinOp("==", path("r", "k"), path("s", "k")))
        text = plan_physical(plan, db).explain()
        assert "HashJoin" in text
        assert "Scan(r <- R)" in text
        assert text.splitlines()[0].startswith("Reduce")

    def test_explain_indents_children(self, db):
        plan = join_plan(Const(True))
        lines = plan_physical(plan, db).explain().splitlines()
        assert lines[1].startswith("  ")
        assert lines[2].startswith("    ")


class TestCostModel:
    def test_scan_uses_database_statistics(self, db):
        from repro.engine.cost import CostModel

        model = CostModel(db)
        assert model.cardinality(Scan("R", "r")) == 6.0

    def test_default_extent_size_without_db(self):
        from repro.engine.cost import CostModel

        model = CostModel()
        assert model.cardinality(Scan("R", "r")) == 1000.0

    def test_selection_reduces_cardinality(self, db):
        from repro.engine.cost import CostModel

        model = CostModel(db)
        scan = Scan("R", "r")
        select = Select(scan, BinOp("==", path("r", "k"), const(1)))
        assert model.cardinality(select) < model.cardinality(scan)

    def test_equality_more_selective_than_comparison(self, db):
        from repro.engine.cost import CostModel

        model = CostModel(db)
        eq = model.selectivity(BinOp("==", var("a"), var("b")))
        lt = model.selectivity(BinOp("<", var("a"), var("b")))
        assert eq < lt

    def test_hash_join_cheaper_than_nested_loop(self, db):
        from repro.engine.cost import CostModel

        model = CostModel(db)
        eq_join = Join(
            Scan("R", "r"), Scan("S", "s"),
            BinOp("==", path("r", "k"), path("s", "k")),
        )
        theta_join = Join(
            Scan("R", "r"), Scan("S", "s"),
            BinOp("<", path("r", "k"), path("s", "k")),
        )
        assert model.cost(eq_join) < model.cost(theta_join)

    def test_outer_join_keeps_left_cardinality(self, db):
        from repro.engine.cost import CostModel

        model = CostModel(db)
        join = OuterJoin(Scan("R", "r"), Scan("S", "s"), Const(False))
        assert model.cardinality(join) >= model.cardinality(Scan("R", "r"))

    def test_nested_comprehension_raises_cost(self, db):
        from repro.calculus.terms import Extent
        from repro.engine.cost import CostModel

        model = CostModel(db)
        cheap = Reduce(Scan("R", "r"), "sum", path("r", "v"))
        nested_head = comprehension("sum", path("s2", "w"), ("s2", Extent("S")))
        pricey = Reduce(Scan("R", "r"), "sum", nested_head)
        assert model.cost(pricey) > model.cost(cheap)


# ---------------------------------------------------------------------------
# Group-join fusion
# ---------------------------------------------------------------------------


def _fusable_sites(plan) -> int:
    """Nests over an outer-join that group by exactly its left columns,
    read right columns only and null-filter on a right column."""
    from repro.algebra.operators import operators

    count = 0
    for op in operators(plan):
        if isinstance(op, Nest) and isinstance(op.child, OuterJoin):
            left, right = op.child.left.columns(), set(op.child.right.columns())
            if (
                set(op.group_by) == set(left)
                and op.null_vars
                and set(op.null_vars) <= right
                and free_vars(op.head) | free_vars(op.pred) <= right
            ):
                count += 1
    return count


def _walk(op):
    yield op
    for child in op.children():
        yield from _walk(child)


class TestGroupJoinFusion:
    def test_fires_at_every_corpus_site(self, databases):
        from corpus import CORPUS
        from repro.engine.physical import PGroupJoin

        sites = 0
        for query in CORPUS:
            db = databases[query.family]
            compiled = QueryPipeline(db).compile_oql(query.oql)
            expected = _fusable_sites(compiled.optimized)
            # Every such nest is a group-join: none is left as a hash nest
            # sitting on the outer join it could have absorbed.
            fused = [
                op
                for op in _walk(compiled.physical(db))
                if isinstance(op, PGroupJoin)
            ]
            assert len(fused) == expected, query.name
            sites += expected
        assert sites == 26

    def test_no_hash_joins_means_the_keyless_form(self, company_db):
        options = OptimizerOptions(hash_joins=False)
        compiled = QueryPipeline(company_db, options).compile_oql(
            "select distinct struct( D: d.dno, T: sum( select e.salary "
            "from e in Employees where e.dno = d.dno ) ) from d in Departments"
        )
        fused = compiled.physical(company_db).child
        assert fused.describe().startswith("GroupJoin(sum -> ")
        assert "; residual " in fused.describe() and fused.left_keys == ()


# ---------------------------------------------------------------------------
# Correlation-domain sharing
# ---------------------------------------------------------------------------


def _shared_sites(db, oql, options=None):
    from repro.engine.physical import PSharedNest

    compiled = QueryPipeline(db, options).compile_oql(oql)
    return [
        op for op in _walk(compiled.physical(db)) if isinstance(op, PSharedNest)
    ]


class TestSharedNestPlanning:
    SITES = {
        "auction_category_counts": "SharedNest(sum -> {} per {}.name)",
        "query_e": "SharedNest(all -> {} per {}.id)",
        "hotels": "SharedNest(some -> {} per {}.name)",
        "nested_in_nested": "SharedNest(bag -> {} per {}.dno)",
    }

    @pytest.mark.parametrize("hash_joins", [True, False])
    def test_fires_at_exactly_four_corpus_sites(self, databases, hash_joins):
        # hash_joins=False still shares: pipeline-nl-joins checks the joins,
        # algebra-logical and calculus-raw check the sharing.
        from corpus import CORPUS
        from repro.engine.physical import PGroupJoin, PHashNest

        options = OptimizerOptions(hash_joins=hash_joins)
        found = {}
        for query in CORPUS:
            for op in _shared_sites(databases[query.family], query.oql, options):
                assert query.name not in found, "one site per query"
                found[query.name] = op
        assert set(found) == set(self.SITES)
        for name, op in found.items():
            # The nest itself is never a group-join (that pattern is tried
            # first); the expression names the correlation, not a column.
            assert type(op.spine) is PHashNest and not isinstance(op, PGroupJoin)
            (binding,) = op.bindings
            (column,) = free_vars(binding)
            assert op.describe() == self.SITES[name].format(op.spine.out_var, column)
            assert set(op.spine.group_by) >= {column}

    def test_a_nest_that_reads_a_bare_outer_column_is_not_shared(self, company_db):
        # struct(D: d, ...) in the inner head reads d itself: nothing two
        # departments could share.
        assert not _shared_sites(
            company_db,
            "select distinct struct( D: d.name, Rich: ( select struct(E: e.name, D: d) "
            "from e in Employees where e.dno = d.dno and e.salary > "
            "avg( select u.salary from u in Employees where u.dno = d.dno ) ) ) "
            "from d in Departments",
        )

    def test_a_nest_with_no_outer_join_on_its_spine_is_not_shared(self, company_db):
        # Γ ∘ =μ: every element comes from the row's own collection.
        assert not _shared_sites(
            company_db,
            "select distinct struct( E: e.name, K: count( select c from c in "
            "e.children where c.age > 3 ) ) from e in Employees",
        )

    def test_a_collection_valued_binding_is_compared_exactly(self):
        # {{1, 2}} = {{1.0, 2}} as values, yet the sums over them are 3 and
        # 3.0: rows share a representative only when no expression could
        # tell their bindings apart.
        db = Database()
        tags = [BagValue([1, 2]), BagValue([1.0, 2]), BagValue([1, 2])]
        db.add_extent("O", [Record(k=i, tags=t) for i, t in enumerate(tags, 1)])
        db.add_extent("Y", [Record(n=n) for n in (1, 2, 5)])
        oql = (
            "select struct( A: o.k, S: sum( select t from y in Y, t in o.tags "
            "where y.n = t ) ) from o in O"
        )
        (site,) = _shared_sites(db, oql)
        assert site.describe().endswith(".tags)")
        results = {
            name: sorted(map(repr, QueryPipeline(db, options).run_oql(oql)))
            for name, options in {
                "shared": None,
                "plain": OptimizerOptions(parallel=True),
                "naive": OptimizerOptions(unnest=False),
            }.items()
        }
        assert results["shared"] == ["<A=1, S=3>", "<A=2, S=3.0>", "<A=3, S=3>"]
        assert results["plain"] == results["naive"] == results["shared"]

    def test_parallel_plans_keep_the_plain_spine(self, auction_db):
        from corpus import CORPUS

        (query,) = [q for q in CORPUS if q.name == "auction_category_counts"]
        options = OptimizerOptions(parallel=True, num_workers=2)
        assert not _shared_sites(auction_db, query.oql, options)
        assert QueryPipeline(auction_db, options).run_oql(query.oql) == QueryPipeline(
            auction_db
        ).run_oql(query.oql)
