"""Unit tests for the calculus term language (repro.calculus.terms)."""

from __future__ import annotations

import pytest

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
    Null,
    Proj,
    RecordCons,
    Singleton,
    Var,
    Zero,
    comprehension,
    conj,
    conjuncts,
    const,
    free_vars,
    fresh_name,
    path,
    record,
    subterms,
    substitute,
    transform,
    var,
)
from repro.testing.normalization_spec import alpha_rename, bound_vars


class TestConstruction:
    def test_record_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RecordCons((("a", Const(1)), ("a", Const(2))))

    def test_binop_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="unknown binary operator"):
            BinOp("**", Const(1), Const(2))

    def test_path_builder(self):
        term = path("e", "manager", "children")
        assert term == Proj(Proj(Var("e"), "manager"), "children")

    def test_comprehension_builder_mixed_qualifiers(self):
        comp = comprehension(
            "set", var("x"), ("x", Extent("X")), BinOp(">", var("x"), const(3))
        )
        assert comp.generators() == (Generator("x", Extent("X")),)
        assert comp.filters() == (Filter(BinOp(">", Var("x"), Const(3))),)

    def test_comprehension_builder_rejects_garbage(self):
        with pytest.raises(TypeError):
            comprehension("set", var("x"), 42)  # type: ignore[arg-type]

    def test_record_builder_sorts_fields(self):
        assert record(b=const(2), a=const(1)) == record(a=const(1), b=const(2))

    def test_structural_equality(self):
        a = comprehension("sum", const(1), ("x", Extent("X")))
        b = comprehension("sum", const(1), ("x", Extent("X")))
        assert a == b

    def test_field_expr(self):
        rec = record(a=const(1))
        assert rec.field_expr("a") == Const(1)
        with pytest.raises(KeyError):
            rec.field_expr("b")


class TestConjunction:
    def test_conj_empty_is_true(self):
        assert conj() == Const(True)

    def test_conj_drops_true(self):
        assert conj(Const(True), var("p")) == Var("p")

    def test_conjuncts_roundtrip(self):
        parts = [var("p"), var("q"), var("r")]
        assert conjuncts(conj(*parts)) == parts

    def test_conjuncts_of_true_is_empty(self):
        assert conjuncts(Const(True)) == []

    def test_conjuncts_flattens_nested_ands(self):
        nested = BinOp("and", BinOp("and", var("a"), var("b")), var("c"))
        assert conjuncts(nested) == [Var("a"), Var("b"), Var("c")]


class TestFreeVars:
    def test_var(self):
        assert free_vars(var("x")) == {"x"}

    def test_lambda_binds(self):
        assert free_vars(Lambda("x", BinOp("+", var("x"), var("y")))) == {"y"}

    def test_let_binds_body_only(self):
        term = Let("x", var("y"), BinOp("+", var("x"), var("z")))
        assert free_vars(term) == {"y", "z"}

    def test_generator_binds_later_qualifiers_and_head(self):
        comp = comprehension(
            "set",
            BinOp("+", var("x"), var("free")),
            ("x", Extent("X")),
            BinOp(">", var("x"), var("other")),
        )
        assert free_vars(comp) == {"free", "other"}

    def test_generator_domain_sees_earlier_vars_only(self):
        comp = comprehension(
            "set", var("y"), ("x", Extent("X")), ("y", path("x", "kids"))
        )
        assert free_vars(comp) == set()

    def test_extent_is_not_a_variable(self):
        assert free_vars(Extent("Employees")) == set()

    def test_bound_vars(self):
        comp = comprehension("set", Lambda("f", var("f")), ("x", Extent("X")))
        assert bound_vars(comp) == {"x", "f"}


class TestSubstitution:
    def test_simple(self):
        assert substitute(var("x"), {"x": const(1)}) == Const(1)

    def test_shadowed_by_lambda(self):
        term = Lambda("x", var("x"))
        assert substitute(term, {"x": const(1)}) == term

    def test_shadowed_by_generator(self):
        comp = comprehension("set", var("x"), ("x", Extent("X")))
        assert substitute(comp, {"x": const(1)}) == comp

    def test_domain_substituted_before_binding(self):
        comp = comprehension("set", var("x"), ("x", var("d")))
        result = substitute(comp, {"d": Extent("X")})
        assert result == comprehension("set", var("x"), ("x", Extent("X")))

    def test_capture_avoidance_lambda(self):
        # (λx. x + y)[y := x]  must NOT become λx. x + x
        term = Lambda("x", BinOp("+", var("x"), var("y")))
        result = substitute(term, {"y": var("x")})
        assert isinstance(result, Lambda)
        assert result.param != "x"
        assert result.body == BinOp("+", Var(result.param), Var("x"))

    def test_capture_avoidance_generator(self):
        # { x + y | x <- X }[y := x] must rename the generator variable.
        comp = comprehension("set", BinOp("+", var("x"), var("y")), ("x", Extent("X")))
        result = substitute(comp, {"y": var("x")})
        gen = result.generators()[0]
        assert gen.var != "x"
        assert result.head == BinOp("+", Var(gen.var), Var("x"))

    def test_let_shadowing(self):
        term = Let("x", var("y"), var("x"))
        result = substitute(term, {"x": const(9)})
        assert result == Let("x", Var("y"), Var("x"))

    def test_empty_mapping_is_identity(self):
        term = BinOp("+", var("a"), var("b"))
        assert substitute(term, {}) is term


class TestTraversal:
    def test_subterms_preorder(self):
        term = BinOp("+", var("a"), const(1))
        assert list(subterms(term)) == [term, Var("a"), Const(1)]

    def test_transform_bottom_up(self):
        term = BinOp("+", const(1), const(2))

        def fold(t):
            if isinstance(t, BinOp) and isinstance(t.left, Const) and isinstance(t.right, Const):
                return Const(t.left.value + t.right.value)
            return t

        assert transform(term, fold) == Const(3)

    def test_transform_rebuilds_all_node_kinds(self):
        term = If(
            Not(BinOp("==", var("a"), Null())),
            Merge("set", Singleton("set", var("a")), Zero("set")),
            Apply(Lambda("x", Proj(var("x"), "f")), record(f=const(1))),
        )
        # identity transform must reproduce an equal term
        assert transform(term, lambda t: t) == term

    def test_alpha_rename(self):
        comp = comprehension(
            "set", var("x"), ("x", Extent("X")), BinOp(">", var("x"), const(0))
        )
        renamed = alpha_rename(comp, "_1")
        gen = renamed.generators()[0]
        assert gen.var == "x_1"
        assert renamed.head == Var("x_1")
        assert renamed.filters()[0].pred == BinOp(">", Var("x_1"), Const(0))

    def test_fresh_names_are_unique(self):
        names = {fresh_name("v") for _ in range(100)}
        assert len(names) == 100


class TestStr:
    def test_str_uses_pretty(self):
        comp = comprehension("sum", const(1), ("x", Extent("X")))
        assert str(comp) == "+{ 1 | x <- X }"
