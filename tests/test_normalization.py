"""Unit tests for the normalization algorithm (paper Figure 4, rules N1–N9),
predicate normalization, and canonicalization.

Most classes test the rules in their declarative form, the spec of
:mod:`repro.testing.normalization_spec`; ``TestPrepareIsTheSpec`` checks
the pipeline's one-walk :func:`~repro.core.normalization.prepare` against
it."""

from __future__ import annotations

import pytest

from repro.calculus.evaluator import evaluate
from repro.calculus.terms import (
    Apply,
    BinOp,
    Comprehension,
    Const,
    Extent,
    Filter,
    Generator,
    If,
    Lambda,
    Let,
    Merge,
    Not,
    Proj,
    Singleton,
    Var,
    Zero,
    comprehension,
    const,
    path,
    record,
    subterms,
    var,
)
from repro.core.normalization import prepare
from repro.core.unnesting import _alpha_canonical
from repro.data.database import Database
from repro.data.values import NULL, Record, SetValue
from repro.testing.normalization_spec import (
    canonicalize,
    normalize,
    normalize_predicates,
)


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.add_extent("X", [Record(a=1), Record(a=2), Record(a=3)])
    database.add_extent("Y", [Record(b=2), Record(b=3)])
    return database


def assert_preserves(term, db):
    """Normalization must be meaning-preserving."""
    assert evaluate(normalize(term), db) == evaluate(term, db)


class TestN1N2:
    def test_beta_reduction(self):
        term = Apply(Lambda("x", BinOp("+", var("x"), const(1))), const(2))
        assert normalize(term) == Const(3) or normalize(term) == BinOp(
            "+", Const(2), Const(1)
        )

    def test_record_projection_folds(self):
        term = Proj(record(a=const(1), b=const(2)), "b")
        assert normalize(term) == Const(2)

    def test_let_inlining(self):
        term = Let("x", const(5), BinOp("+", var("x"), var("x")))
        # inlining plus constant folding
        assert normalize(term) == Const(10)

    def test_constant_folding(self):
        assert normalize(BinOp("*", const(6), const(7))) == Const(42)
        assert normalize(BinOp("<", const(1), const(2))) == Const(True)
        # division by zero must stay a runtime matter
        term = BinOp("/", const(1), const(0))
        assert normalize(term) == term


class TestN3ConditionalDomain:
    def test_splits_into_merge(self, db):
        term = comprehension(
            "set",
            var("v"),
            ("v", If(var("p"), Extent("X"), Extent("Y"))),
        )
        result = normalize(term)
        assert isinstance(result, Merge)
        # semantics under both truth values of p
        for p in (True, False):
            lhs = evaluate(term, db, {"p": p})
            rhs = evaluate(result, db, {"p": p})
            assert lhs == rhs


class TestN4N5:
    def test_zero_domain_collapses(self):
        term = comprehension("sum", var("v"), ("v", Zero("set")))
        assert normalize(term) == Zero("sum")

    def test_false_filter_collapses(self):
        term = comprehension("set", var("v"), ("v", Extent("X")), const(False))
        assert normalize(term) == Zero("set")

    def test_singleton_domain_binds(self, db):
        term = comprehension(
            "set", BinOp("+", var("v"), const(1)), ("v", Singleton("set", const(41)))
        )
        assert normalize(term) == Singleton("set", Const(42)) or evaluate(
            normalize(term), db
        ) == SetValue([42])

    def test_singleton_substitutes_into_later_domains(self, db):
        term = comprehension(
            "sum",
            const(1),
            ("v", Singleton("set", Extent("X"))),
            ("w", var("v")),
        )
        assert_preserves(term, db)
        assert evaluate(normalize(term), db) == 3


class TestN6MergeDomain:
    def test_split_for_idempotent_outer(self, db):
        term = comprehension(
            "set", path("v", "a"), ("v", Merge("set", Extent("X"), Extent("X")))
        )
        assert_preserves(term, db)

    def test_not_split_for_set_into_sum(self, db):
        # +{1 | v <- X U X} must count distinct elements (3), not 6.
        term = comprehension(
            "sum", const(1), ("v", Merge("set", Extent("X"), Extent("X")))
        )
        result = normalize(term)
        assert evaluate(result, db) == 3

    def test_bag_merge_splits_into_any_outer(self, db):
        term = comprehension(
            "sum",
            const(1),
            ("v", Merge("bag", Singleton("bag", const(7)), Singleton("bag", const(7)))),
        )
        assert evaluate(normalize(term), db) == 2


class TestN7Flattening:
    def test_flattens_nested_set_domain(self, db):
        inner = comprehension("set", path("x", "a"), ("x", Extent("X")))
        term = comprehension("set", BinOp("+", var("v"), const(1)), ("v", inner))
        result = normalize(term)
        assert isinstance(result, Comprehension)
        gens = result.generators()
        assert len(gens) == 1 and gens[0].domain == Extent("X")
        assert_preserves(term, db)

    def test_does_not_flatten_set_into_sum(self, db):
        # sum over a set comprehension that collapses duplicates: 0*a yields
        # {0}, so the sum is 0, not 0+0+0.
        inner = comprehension(
            "set", BinOp("*", path("x", "a"), const(0)), ("x", Extent("X"))
        )
        term = comprehension("sum", var("v"), ("v", inner))
        result = normalize(term)
        assert evaluate(result, db) == 0
        # the nested comprehension must survive for the unnester
        assert any(
            isinstance(g.domain, Comprehension) for g in result.generators()
        )

    def test_flattens_bag_into_sum(self, db):
        inner = comprehension(
            "bag", BinOp("*", path("x", "a"), const(0)), ("x", Extent("X"))
        )
        term = comprehension("sum", const(1), ("v", inner))
        result = normalize(term)
        assert evaluate(result, db) == 3
        assert all(
            not isinstance(g.domain, Comprehension) for g in result.generators()
        )

    def test_variable_capture_avoided(self, db):
        # Both comprehensions use the variable name "x".
        inner = comprehension("set", path("x", "a"), ("x", Extent("X")))
        term = comprehension(
            "set",
            BinOp("+", var("x"), path("y", "b")),
            ("y", Extent("Y")),
            ("x", inner),
        )
        assert_preserves(term, db)


class TestN8Existential:
    def test_unnests_some_filter(self, db):
        some = comprehension(
            "some", const(True), ("y", Extent("Y")),
            BinOp("==", path("x", "a"), path("y", "b")),
        )
        term = comprehension("set", path("x", "a"), ("x", Extent("X")), some)
        result = normalize(term)
        assert isinstance(result, Comprehension)
        assert len(result.generators()) == 2, "existential became a generator"
        assert evaluate(result, db) == SetValue([2, 3])

    def test_not_unnested_into_sum(self, db):
        # +{1 | x <- X, some{...}} would double-count if naively flattened.
        some = comprehension(
            "some", const(True), ("y", Extent("Y")),
            BinOp(">=", path("y", "b"), const(0)),
        )
        term = comprehension("sum", const(1), ("x", Extent("X")), some)
        result = normalize(term)
        assert evaluate(result, db) == 3


class TestN9HeadFlattening:
    def test_sum_of_sums(self, db):
        inner = comprehension("sum", path("y", "b"), ("y", Extent("Y")))
        term = comprehension("sum", inner, ("x", Extent("X")))
        result = normalize(term)
        assert isinstance(result, Comprehension)
        assert len(result.generators()) == 2
        assert evaluate(result, db) == 15  # 3 * (2 + 3)

    def test_set_of_sets_not_flattened(self, db):
        inner = comprehension("set", path("y", "b"), ("y", Extent("Y")))
        term = comprehension("set", inner, ("x", Extent("X")))
        result = normalize(term)
        # A set whose elements are sets must stay nested.
        assert evaluate(result, db) == SetValue([SetValue([2, 3])])


class TestSomeHeadToFilter:
    def test_rewrite(self, db):
        term = comprehension(
            "some", BinOp(">", path("y", "b"), const(2)), ("y", Extent("Y"))
        )
        result = normalize(term)
        assert isinstance(result, Comprehension)
        assert result.head == Const(True)
        assert evaluate(result, db) is True

class TestAllHeadToFilter:
    """``all{ p | q̄ } → all{ false | q̄, ¬p }`` — our dual of the rule above."""

    def test_rewrite(self, db):
        term = comprehension(
            "all", BinOp(">", path("y", "b"), const(2)), ("y", Extent("Y"))
        )
        result = normalize(term)
        assert result == Comprehension(
            "all",
            Const(False),
            (Generator("y", Extent("Y")), Filter(BinOp("<=", path("y", "b"), const(2)))),
        )
        assert evaluate(result, db) is False

    @pytest.mark.parametrize("empty", [False, True], ids=["rows", "empty"])
    @pytest.mark.parametrize("p", [True, False, None], ids=["true", "false", "null"])
    def test_three_valued_truth_table(self, p, empty):
        # The head p is read off each row, so it is True, False or NULL per
        # row and no constant folding can decide the comprehension.
        database = Database()
        value = NULL if p is None else p
        database.add_extent("Y", [] if empty else [Record(p=value), Record(p=value)])
        term = comprehension("all", path("y", "p"), ("y", Extent("Y")))
        rewritten = normalize(term)
        assert rewritten != term
        # calculus-raw evaluates the term as written.
        expected = evaluate(term, database)
        assert expected is (True if empty or p is not False else False)
        assert evaluate(rewritten, database) is expected

    def test_mixed_heads_agree_with_the_raw_calculus(self):
        rows = [Record(a=a, b=b) for a in (1, 2, NULL) for b in (1, 2, NULL)]
        for op in ("and", "or"):
            head = BinOp(
                op,
                BinOp("!=", path("y", "a"), const(1)),
                BinOp(">=", path("y", "b"), const(2)),
            )
            for extent_rows in ([], rows[:1], rows[3:5], rows):
                database = Database()
                database.add_extent("Y", extent_rows)
                term = comprehension("all", head, ("y", Extent("Y")))
                assert evaluate(normalize(term), database) is evaluate(term, database)

    def test_false_head_is_a_fixpoint(self, db):
        term = comprehension(
            "all", BinOp(">", path("y", "b"), const(2)), ("y", Extent("Y"))
        )
        once = normalize(term)
        assert once.head == Const(False)
        assert normalize(once) == once
        assert _alpha_canonical(prepare(prepare(term))) == _alpha_canonical(prepare(term))

    def test_head_containing_a_comprehension_is_left_alone(self, db):
        # QUERY E's shape: the inner quantifier is a box of its own
        # (Figure 2); only its own head moves.
        inner = comprehension(
            "some", BinOp("==", path("x", "a"), path("y", "b")), ("x", Extent("X"))
        )
        term = comprehension("all", inner, ("y", Extent("Y")))
        result = normalize(term)
        assert result.monoid_name == "all" and len(result.qualifiers) == 1
        assert isinstance(result.head, Comprehension)
        assert result.head.monoid_name == "some" and result.head.head == Const(True)
        assert_preserves(term, db)

    @pytest.mark.parametrize(
        "name",
        ["setop_except", "nested_quantifiers", "quantifier_over_subquery_with_agg"],
    )
    def test_universal_quantifiers_plan_to_a_keyed_join(self, name, databases):
        from corpus import corpus_by_name
        from repro.algebra.operators import Nest, OuterJoin, operators
        from repro.core.pipeline import QueryPipeline
        from repro.engine.planner import split_equi_conjuncts

        query = corpus_by_name(name)
        db = databases[query.family]
        compiled = QueryPipeline(db).compile_oql(query.oql)
        (nest,) = [op for op in operators(compiled.optimized) if isinstance(op, Nest)]
        assert nest.monoid_name == "all" and nest.head == Const(False)
        join = nest.child
        assert isinstance(join, OuterJoin)
        keys, _ = split_equi_conjuncts(
            join.pred, join.left.columns(), join.right.columns()
        )
        assert len(keys) == 1
        explain = compiled.physical(db).explain()
        assert "GroupJoin(all -> " in explain and "NLJoin" not in explain


class TestHotelExample:
    def test_paper_normalized_form(self, db):
        """The Section 2 example must normalize to a single flat
        comprehension over five path/extent generators."""
        from repro.data.datagen import travel_database

        inner_hotels = comprehension(
            "set", var("h"), ("c", Extent("Cities")), ("h", path("c", "hotels")),
            BinOp("==", path("c", "name"), const("Arlington")),
        )
        texas = comprehension(
            "set", path("t", "name"), ("s", Extent("States")),
            ("t", path("s", "attractions")),
            BinOp("==", path("s", "name"), const("Texas")),
        )
        query = comprehension(
            "set", path("hotel", "price"),
            ("hotel", inner_hotels),
            comprehension(
                "some", BinOp("==", path("r", "bed_num"), const(3)),
                ("r", path("hotel", "rooms")),
            ),
            comprehension(
                "some", BinOp("==", var("en"), path("hotel", "name")), ("en", texas)
            ),
        )
        result = prepare(query)
        assert isinstance(result, Comprehension)
        assert len(result.generators()) == 5
        assert len(result.filters()) == 1  # single conjoined predicate
        travel = travel_database()
        assert evaluate(result, travel) == evaluate(query, travel)
        assert len(evaluate(result, travel)) > 0


class TestPredicateNormalization:
    def test_double_negation(self):
        assert normalize_predicates(Not(Not(var("p")))) == Var("p")

    def test_demorgan_and(self):
        term = Not(BinOp("and", var("p"), var("q")))
        assert normalize_predicates(term) == BinOp("or", Not(Var("p")), Not(Var("q")))

    def test_demorgan_or(self):
        term = Not(BinOp("or", var("p"), var("q")))
        assert normalize_predicates(term) == BinOp("and", Not(Var("p")), Not(Var("q")))

    def test_negated_comparison_flips(self):
        term = Not(BinOp("<", var("a"), var("b")))
        assert normalize_predicates(term) == BinOp(">=", Var("a"), Var("b"))

    def test_negated_constant(self):
        assert normalize_predicates(Not(Const(True))) == Const(False)

    def test_quantifier_duality(self):
        some = comprehension("some", var("p"), ("x", Extent("X")))
        result = normalize_predicates(Not(some))
        assert isinstance(result, Comprehension)
        assert result.monoid_name == "all"
        assert result.head == Not(Var("p"))

        all_comp = comprehension("all", var("p"), ("x", Extent("X")))
        result = normalize_predicates(Not(all_comp))
        assert result.monoid_name == "some"


class TestCanonicalize:
    def test_filters_move_to_end(self):
        term = Comprehension(
            "set",
            var("y"),
            (
                Generator("x", Extent("X")),
                Filter(BinOp(">", path("x", "a"), const(0))),
                Generator("y", Extent("Y")),
            ),
        )
        result = canonicalize(term)
        quals = result.qualifiers
        assert isinstance(quals[0], Generator)
        assert isinstance(quals[1], Generator)
        assert isinstance(quals[2], Filter)

    def test_filters_conjoined(self):
        term = comprehension(
            "set", var("x"), ("x", Extent("X")), var("p"), var("q")
        )
        result = canonicalize(term)
        assert len(result.filters()) == 1

    def test_canonicalize_preserves_semantics(self, db):
        term = Comprehension(
            "sum",
            path("x", "a"),
            (
                Generator("x", Extent("X")),
                Filter(BinOp(">", path("x", "a"), const(1))),
                Generator("y", Extent("Y")),
                Filter(BinOp("==", path("x", "a"), path("y", "b"))),
            ),
        )
        assert evaluate(canonicalize(term), db) == evaluate(term, db)


class TestFixpoint:
    def test_normalize_is_idempotent(self, db):
        inner = comprehension("set", path("x", "a"), ("x", Extent("X")))
        term = comprehension("set", BinOp("+", var("v"), const(1)), ("v", inner))
        once = normalize(term)
        assert normalize(once) == once

    def test_boolean_simplification(self):
        p = var("p")
        # The identities drop from either side ...
        assert normalize(BinOp("and", Const(True), p)) == p
        assert normalize(BinOp("and", p, Const(True))) == p
        assert normalize(BinOp("or", Const(False), p)) == p
        assert normalize(BinOp("or", p, Const(False))) == p
        # ... the absorbing constant only from the left: the reference
        # and/or are left-biased, so a NULL p on the left decides.
        assert normalize(BinOp("or", Const(True), p)) == Const(True)
        assert normalize(BinOp("and", Const(False), p)) == Const(False)
        for term in (BinOp("or", p, Const(True)), BinOp("and", p, Const(False))):
            assert normalize(term) == term

    @pytest.mark.parametrize("p", [True, False, None], ids=["true", "false", "null"])
    @pytest.mark.parametrize("constant", [True, False])
    @pytest.mark.parametrize("op", ["and", "or"])
    def test_boolean_simplification_three_valued_truth_table(self, op, constant, p):
        # p is read off a row, so only bool-simplify can touch the operator;
        # whatever it does must read the same as the term as written.
        database = Database()
        database.add_extent("Y", [Record(p=NULL if p is None else p)])
        for operands in ((path("y", "p"), Const(constant)), (Const(constant), path("y", "p"))):
            term = comprehension("bag", BinOp(op, *operands), ("y", Extent("Y")))
            assert list(evaluate(normalize(term), database)) == list(
                evaluate(term, database)
            )


def _gens(*pairs):
    return tuple(Generator(v, d) for v, d in pairs)


_X, _Y = Extent("X"), Extent("Y")
_A = path("x", "a")

#: Closed terms with every construct the one walk handles, each named for
#: the rule (or the rule-order question) it exercises.
_SPEC_CASES = {
    "beta": Apply(Lambda("f", BinOp("+", var("f"), const(1))), const(2)),
    "beta-through-let": Let(
        "g",
        Lambda("y", BinOp("<", var("y"), const(3))),
        comprehension("set", var("x"), ("x", _X), Apply(var("g"), _A)),
    ),
    "let-bound-box-used-twice": Let(
        "c",
        comprehension("set", path("y", "b"), ("y", _Y)),
        comprehension(
            "bag", record(p=var("u"), q=var("w")), ("u", var("c")), ("w", var("c"))
        ),
    ),
    "projection-of-record": comprehension(
        "set", Proj(record(k=_A, m=const(1)), "k"), ("x", _X)
    ),
    "conditional-domain": Comprehension(
        "bag",
        var("y"),
        (
            Generator("x", _X),
            Filter(BinOp(">", _A, const(0))),
            Generator("y", If(BinOp("==", _A, const(1)), _Y, Zero("bag"))),
            Filter(BinOp("<", path("y", "b"), const(3))),
        ),
    ),
    "merge-domain-split": comprehension(
        "set", var("x"), ("x", Merge("set", _X, _Y)), BinOp(">", var("x"), const(0))
    ),
    "merge-domain-kept-under-sum": comprehension(
        "sum", const(1), ("x", Merge("set", _X, _Y))
    ),
    "own-merge-before-spliced-merge": comprehension(
        "set",
        var("z"),
        ("w", comprehension("list", var("v"), ("v", Merge("set", _X, _Y)))),
        ("u", Merge("set", _X, _Y)),
        ("z", _Y),
    ),
    "singleton-and-zero-domains": comprehension(
        "bag", BinOp("+", var("s"), var("x")), ("s", Singleton("set", const(4))), ("x", _X)
    ),
    "flatten-kept-set-into-sum": comprehension(
        "sum", var("v"), ("v", comprehension("set", _A, ("x", _X)))
    ),
    "bag-with-exists-spliced-into-set": comprehension(
        "set",
        var("v"),
        (
            "v",
            comprehension(
                "bag",
                _A,
                ("x", _X),
                comprehension("some", BinOp("==", path("y", "b"), _A), ("y", _Y)),
            ),
        ),
    ),
    "head-flatten": comprehension(
        "max", comprehension("max", path("y", "b"), ("y", _Y), BinOp(">", _A, const(1))),
        ("x", _X),
    ),
    "all-head-with-beta": comprehension(
        "all", Apply(Lambda("p", BinOp(">=", _A, var("p"))), const(3)), ("x", _X)
    ),
    "all-head-decided-before-a-box-comes-in": comprehension(
        "all",
        BinOp("==", const(0), var("v")),
        ("v", comprehension("set", comprehension("sum", const(0), ("r", _Y)), ("s", _X))),
    ),
    "negations": comprehension(
        "set",
        var("x"),
        ("x", _X),
        Not(Not(BinOp("<", _A, const(2)))),
        Not(BinOp("and", BinOp("==", _A, const(1)), Not(var("q")))),
        Not(comprehension("some", BinOp("==", path("y", "b"), _A), ("y", _Y))),
    ),
    "negated-variable-is-not-pushed-after-substitution": comprehension(
        "set",
        var("x"),
        ("x", _X),
        ("t", comprehension("bag", BinOp("<", path("y", "b"), _A), ("y", _Y))),
        Not(var("t")),
    ),
    "box-emptied-by-an-ancestors-value": comprehension(
        "max",
        comprehension(
            "max",
            comprehension("max", const(0), ("r", _Y), BinOp("==", var("v"), const(1))),
            ("s", _Y),
        ),
        ("v", comprehension("set", const(0), ("x", _X))),
    ),
    "exists-emptied-behind-an-or": comprehension(
        "set",
        var("y"),
        ("v", comprehension("set", const(1), ("x", _X))),
        ("y", _Y),
        BinOp(
            "or",
            BinOp("<", const(4), var("v")),
            comprehension("some", BinOp("<", var("v"), var("v")), ("z", _Y)),
        ),
    ),
}


class TestPrepareIsTheSpec:
    """The one walk reaches the rule set's normal form up to α, every
    generator of its output has its own name, and the rules fire nowhere
    in it."""

    @pytest.mark.parametrize("term", list(_SPEC_CASES.values()), ids=list(_SPEC_CASES))
    def test_prepare_equals_the_rule_set(self, term):
        prepared = prepare(term)
        spec = canonicalize(normalize(normalize_predicates(term)))
        assert _alpha_canonical(prepared) == _alpha_canonical(spec)
        names = [
            g.var
            for sub in subterms(prepared)
            if isinstance(sub, Comprehension)
            for g in sub.generators()
        ]
        assert len(names) == len(set(names))
        assert canonicalize(normalize(prepared)) == prepared
